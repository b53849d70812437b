"""Spans around calls into the library's layers, installed from outside.

A traced run replaces each public name a ``zariski`` module binds (for
example ``zariski.engine.inner`` and ``zariski.cone.inner``, which are the
same function imported twice) with a wrapper that records a span and
restores the original afterwards.  The untraced run installs nothing.

The library is single-threaded and has no queues, so a layer has busy time
but no time waited; spans give calls and self time (span minus the part of
it that child spans cover).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Layer -> the functions timed in it; "Class.method" names wrap a method.
LAYER_FUNCTIONS = {
    "exact": (
        "inner",
        "gram_matrix",
        "is_negative_definite",
        "solve_symmetric",
        "signature",
        "quadratic_roots",
        "split_square",
    ),
    "cone": (
        "ConeModel.validate",
        "ConeModel.is_dual_nef",
        "ConeModel.in_positive_cone_closure",
    ),
    "engine": ("decompose", "verify_certificate", "enumerate_exceptional_families"),
    "fixtures": ("gen_model", "gen_pseudoeffective_class"),
    "serialize": ("load_model", "load_json", "decomposition_to_json"),
    "cli": ("main",),
    "bundle": ("mu_L", "decompose_bundle", "volume_L"),
}

REFUSAL_REASONS = ("gram-not-negative-definite", "positive-cone-closure")
SPANS_KEPT_PER_PHASE = 20_000


def span_names() -> list[str]:
    return [
        f"{layer}.{fn.rsplit('.', 1)[-1]}"
        for layer, fns in LAYER_FUNCTIONS.items()
        for fn in fns
    ]


class Phase:
    """Counts, self time and the first spans of one traced stretch of a run."""

    def __init__(self, label: str, observe: bool):
        self.label = label
        self.observe = observe
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent name, child name)
        self.outcomes: Counter = Counter()
        self.seen_classes: set = set()
        self.seen_supports: set = set()
        self.spans: list[tuple] = []
        self.dropped = 0


class Tracer:
    """Collects spans from the wrappers that :func:`installed` puts in place."""

    def __init__(self):
        self.phases: list[Phase] = []
        self.phase: Phase | None = None
        self.op = None
        self.stack: list[list] = []  # [span id, name, child ns]
        self.next_id = 0
        self.origin = perf_counter_ns()

    @contextmanager
    def recording(self, label: str, observe: bool = True):
        """Record into a new phase; ``observe`` also tallies call outcomes."""
        self.phase = Phase(label, observe)
        self.phases.append(self.phase)
        try:
            yield self.phase
        finally:
            self.phase = None

    def wrap(self, name: str, fn):
        tracer = self
        observer = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [sid, name, 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            outcome = None
            try:
                result = outcome = fn(*args, **kwargs)
                return result
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                duration = end - start
                phase.calls[name] += 1
                phase.self_ns[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    phase.child_calls[(parent[1], name)] += 1
                if len(phase.spans) < SPANS_KEPT_PER_PHASE:
                    phase.spans.append(
                        (sid, name, start - tracer.origin, end - tracer.origin,
                         None if parent is None else parent[0], tracer.op)
                    )
                else:
                    phase.dropped += 1
                if observer is not None and phase.observe and outcome is not None:
                    observer(phase, args, outcome)

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics summed over every phase recorded."""
        calls, self_ns, child, outcomes = Counter(), Counter(), Counter(), Counter()
        for phase in self.phases:
            calls.update(phase.calls)
            self_ns.update(phase.self_ns)
            child.update(phase.child_calls)
            outcomes.update(phase.outcomes)
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        tried = outcomes["decomposed"] + sum(outcomes[r] for r in REFUSAL_REASONS)
        out["engine.decompose.rounds"] = (outcomes["rounds"], "count")
        out["engine.decompose.decomposed_ratio"] = (
            _ratio(outcomes["decomposed"], tried), "ratio")
        out["engine.decompose.support_repeat_share"] = (
            _ratio(outcomes["support_repeats"], outcomes["classes"]), "ratio")
        for reason in REFUSAL_REASONS:
            out[f"engine.decompose.refused.{reason}"] = (outcomes[reason], "count")
        tested = child[("engine.enumerate_exceptional_families", "exact.is_negative_definite")]
        out["engine.enumerate.tested"] = (tested, "count")
        out["engine.enumerate.found_ratio"] = (_ratio(outcomes["families"], tested), "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many were dropped."""
        with open(path, "w") as fh:
            for phase in self.phases:
                for sid, name, start, end, parent, op in phase.spans:
                    fh.write(json.dumps({
                        "id": sid, "name": name, "start_ns": start, "end_ns": end,
                        "parent": parent, "op": op, "phase": phase.label,
                    }) + "\n")
        return sum(phase.dropped for phase in self.phases)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _observe_decompose(phase: Phase, args, outcome) -> None:
    reason = getattr(outcome, "reason", None)
    if reason is not None:
        phase.outcomes[reason] += 1
        return
    if isinstance(outcome, Exception):
        return
    phase.outcomes["decomposed"] += 1
    phase.outcomes["rounds"] += outcome.iterations
    model = args[0]
    # a chamber cache could only save work where there is a negative part
    if not outcome.support or (model, outcome.alpha) in phase.seen_classes:
        return
    phase.seen_classes.add((model, outcome.alpha))
    phase.outcomes["classes"] += 1
    if (model, outcome.support) in phase.seen_supports:
        phase.outcomes["support_repeats"] += 1
    phase.seen_supports.add((model, outcome.support))


def _observe_enumerate(phase: Phase, args, outcome) -> None:
    if not isinstance(outcome, Exception):
        phase.outcomes["families"] += len(outcome) - 1  # the empty family is not tested


_OBSERVERS = {
    "engine.decompose": _observe_decompose,
    "engine.enumerate_exceptional_families": _observe_enumerate,
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of every layer function; restore them on exit."""
    replaced = []
    try:
        for layer, fns in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"zariski.{layer}")
            for fn_name in fns:
                owner_name, _, attr = fn_name.rpartition(".")
                name = f"{layer}.{attr}"
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    targets = [owner]
                else:
                    original = getattr(home, attr)
                    targets = [
                        module for key, module in list(sys.modules.items())
                        if key.split(".")[0] == "zariski"
                        and getattr(module, attr, None) is original
                    ]
                wrapper = tracer.wrap(name, original)
                for target in targets:
                    setattr(target, attr, wrapper)
                    replaced.append((target, attr, original))
        yield tracer
    finally:
        for target, attr, original in reversed(replaced):
            setattr(target, attr, original)
