#!/usr/bin/env python3
"""Benchmark of the zariski library, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pool --seed 0 --seconds 8 --trace 0

Workloads are ``pool``, ``delpezzo`` and ``cli`` (see ``workloads.py``).  One
process, one caller, no threads: a closed loop that starts each operation
when the previous one has returned.

``--trace 0`` sets the workload up three times (``setup_s`` is the median),
runs whole passes over its operations in a seeded order, at least one and
until ``--seconds`` have passed, with 15 cold starts of the CLI spread
through the first.  Then, for each kind of operation, it times the slowest
ones again, three times as many as lie beyond the tail, in passes of their
own that take turns by kind, at least one each and until half of
``--seconds`` has passed, so that the operations the tail is read from have
many times each.  It enumerates the workload's models before the passes,
before the tail passes and after them, each time but the first only while
the enumerations so far number fewer than three and took under 10 s;
``enumerate_s`` is the median.  Every time it reports is in reference
seconds (``speed.py``): the thread's CPU time scaled by how fast the shared
processor ran at that moment, so that neighbours' load does not move the
numbers.  Cold starts are timed against a reference child process instead
(``ColdStarts``).

``--trace 1`` wraps the library's layer functions (``spans.py``), sets up
once, runs untraced passes for half of ``--seconds`` and then one traced pass
and one enumeration, and reports calls and self time (wall) per layer
function, counters, and ``trace.overhead_ratio``: the traced pass's time over
the median untraced pass, both in reference seconds.  The speed samples taken
during the traced pass count towards the self time of the span they land in.

Every output is checked after the timed region: decompositions against the
benchmark's own verifier, refusals and exit codes against their expected
values, and the known answers in ``expected.json``.  Wrong answers and
unexpected exceptions or exit codes count as failed; ``failed_share`` is
printed and recorded.  An operation's latency is the median of its times
over all its passes; the p50 and the tail are taken over operations, and
the rate (``per_s``) over the whole passes only.  A tail latency is p99, or
the highest quantile with ten operations above it when there are fewer than
1000.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the machine, sample counts and raw figures, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``perfbench/out/spans-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
COLD_STARTS = 15
ENUMERATE_REPEATS = 3
ENUMERATE_BUDGET_S = 10.0
TAIL_SHARE = 0.5  # of --seconds, for the passes over the slowest ops


def import_library() -> None:
    """Put the checkout's ``src`` first on the path, or stop without a result."""
    src = ROOT / "src"
    if not (src / "zariski" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src} holds no zariski package; run from a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def run_passes(ops, order, seconds: float, clock, tracer=None, between=None, count=0):
    """Whole passes over ``ops`` in ``order``: at least one, and until ``seconds`` of wall time.

    Returns ``(times, outputs, pass_times)``: each op's times by op index,
    every output as ``(op index, output)`` and each pass's time, all by
    ``clock``.
    ``between``, if given, runs ``count`` times, untimed, spread evenly
    through the first pass.
    """
    times = [[] for _ in ops]
    outputs = []
    pass_times = []
    stops = {len(order) * (k + 1) // (count + 1) for k in range(count)}
    start = perf_counter()
    while not pass_times or perf_counter() - start < seconds:
        in_pass = 0.0
        for k, i in enumerate(order, 1):
            if tracer is not None:
                tracer.op = i
            mark = clock.mark()
            try:
                out = ops[i].run()
            except Exception as exc:  # recorded and judged as the op's output
                out = exc
            took = clock.since(mark)
            in_pass += took
            times[i].append(took)
            outputs.append((i, out))
            if between is not None and not pass_times and k in stops:
                between()
        pass_times.append(in_pass)
    return times, outputs, pass_times


def enumerate_all(models):
    from zariski import engine

    return [engine.enumerate_exceptional_families(m) for m in models]


class Enumerations:
    """Whole enumerations of the workload's models, run at several points of the run.

    A call after the first enumerates only while fewer than
    ``ENUMERATE_REPEATS`` have run and they took under ``ENUMERATE_BUDGET_S``
    of wall time.  Spreading them out keeps one slow stretch of the shared
    processor, which the speedometer corrects only in part, from landing on
    all of them.
    """

    def __init__(self, models, clock):
        self.models = models
        self.clock = clock
        self.times: list[float] = []
        self.results: list = []
        self.wall_s = 0.0

    def __call__(self) -> None:
        if self.results and (len(self.results) >= ENUMERATE_REPEATS or self.wall_s >= ENUMERATE_BUDGET_S):
            return
        settle()
        start, mark = perf_counter(), self.clock.mark()
        self.results.append(enumerate_all(self.models))
        self.times.append(self.clock.since(mark))
        self.wall_s += perf_counter() - start


def run_child(args, env):
    """Run ``python args`` to the end; returns the process and the user and system CPU seconds it used."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


class ColdStarts:
    """Sequential ``python -m zariski.cli`` processes, each after a reference child; checks their reports.

    The reference child starts Python and imports the standard modules the
    library uses, but nothing of the library.  A cold start's CPU time,
    relative to the reference child's, tracks the shared processor's load
    far more closely than relative to the speedometer's samples: process
    start-up slows more under load than the samples do.
    """

    REFERENCE = ["-I", "-c", "import argparse, dataclasses, fractions, itertools, json, pathlib, random, typing"]
    REFERENCE_MS = 53.0  # the reference child's median CPU time in reference milliseconds (speed.py)

    def __init__(self, argv, check, clock):
        self.argv = argv
        self.check = check
        self.clock = clock
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.times: list[float] = []
        self.reference_times: list[float] = []
        self.problems: list[str | None] = []

    def __call__(self) -> None:
        from workloads import summarize

        with self.clock.paused():
            proc, took = run_child(self.REFERENCE, self.env)
            self.reference_times.append(took)
            proc, took = run_child(["-m", "zariski.cli", *self.argv], self.env)
            self.times.append(took)
        problem = self.check(summarize((proc.returncode, proc.stdout)))
        self.problems.append(problem and f"cold start: {problem}")

    def reference_ms(self) -> float:
        """The median cold start in reference milliseconds."""
        return median(self.times) / median(self.reference_times) * self.REFERENCE_MS


class Tally:
    """Attempts, failures and the first few problems of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def judge_ops(self, ops, outputs) -> list:
        """Check every output; returns the first summary of each op by index."""
        from workloads import summarize

        first = [None] * len(ops)
        verdicts = {}
        for i, out in outputs:
            s = summarize(out)
            if first[i] is None:
                first[i] = s
            if (i, s) not in verdicts:
                try:
                    verdicts[i, s] = ops[i].check(s)
                except Exception as exc:
                    verdicts[i, s] = f"check raised {type(exc).__name__}: {exc}"
            problem = verdicts[i, s] or (None if s == first[i] else "output changed between passes")
            self.record(problem and f"op {i}: {problem}")
        return first

    def judge(self, name: str, check, *args) -> None:
        try:
            problem = check(*args)
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        self.record(problem and f"{name}: {problem}")

    def judge_all(self, workload, outputs, enumerations) -> None:
        first = self.judge_ops(workload.ops, outputs)
        for name, check in workload.known_answers:
            self.judge(name, check, first)
        self.judge("families", workload.check_families, enumerations[0])
        for again in enumerations[1:]:
            self.record(None if again == enumerations[0] else "families changed between repeats")


KINDS = (("decompose", "decompose_per_s"), ("command", "commands_per_s"))


def rates(ops, times) -> dict:
    """Operations per reference second of each kind, over every time in ``times``."""
    out = {}
    for kind, _ in KINDS:
        mine = [t for op, t in zip(ops, times) if op.kind == kind]
        out[kind] = sum(len(t) for t in mine) / sum(sum(t) for t in mine)
    return out


def slowest_ops(ops, times, kind) -> list[int]:
    """Indices of the slowest ops of ``kind`` (``verify.slowest``)."""
    from verify import slowest

    mine = [i for i, op in enumerate(ops) if op.kind == kind]
    return [mine[k] for k in slowest([times[i] for i in mine])]


def tail_passes(ops, times, outputs, seed, seconds, clock) -> dict:
    """Passes over the slowest ops of each kind in turn, each kind at least once and until ``seconds``.

    Taking turns spreads every kind's extra times over the whole phase.
    Adds to ``times`` and ``outputs``; returns each kind's pass times.
    """
    orders = {kind: slowest_ops(ops, times, kind) for kind, _ in KINDS}
    for order in orders.values():
        random.Random(seed).shuffle(order)
    pass_times = {kind: [] for kind in orders}
    start = perf_counter()
    while True:
        for kind, order in orders.items():
            more, more_outputs, took = run_passes(ops, order, 0, clock)
            for mine, extra in zip(times, more):
                mine += extra
            outputs += more_outputs
            pass_times[kind] += took
        if perf_counter() - start >= seconds:
            return pass_times


def latency_metrics(ops, times, per_s, detail) -> dict:
    from verify import latency_summary

    out = {}
    for kind, rate in KINDS:
        summary = latency_summary([t for op, t in zip(ops, times) if op.kind == kind])
        summary["per_s"] = per_s[kind]
        detail[kind] = summary
        out[rate] = (per_s[kind], "1/s")
        out[f"{kind}_p50_ms"] = (summary["p50_ms"], "ms")
        out[f"{kind}_p99_ms"] = (summary["tail_ms"], "ms")
    return out


def settle() -> None:
    """Collect, then exempt what exists from later collections.

    Garbage collection of the benchmark's own retained inputs and outputs
    would otherwise land in timed operations at times that vary run to run.
    """
    gc.collect()
    gc.freeze()


def untraced_run(build, seed, seconds, tiny, workdir, tally, detail) -> dict:
    from speed import Speedometer

    walls = [perf_counter()]
    with Speedometer() as clock:
        setup_times, states = [], []
        for k in range(SETUPS):
            target = workdir / f"setup{k}"
            target.mkdir()
            mark = clock.mark()
            states.append(build(seed, target, tiny))
            setup_times.append(clock.since(mark))
        workload = states[-1]
        walls.append(perf_counter())
        enumerations = Enumerations(workload.models, clock)
        enumerations()
        settle()

        order = list(range(len(workload.ops)))
        random.Random(seed).shuffle(order)
        cold = ColdStarts(workload.cold_argv, workload.cold_check, clock)
        times, outputs, pass_times = run_passes(workload.ops, order, seconds, clock,
                                                between=cold, count=3 if tiny else COLD_STARTS)
        per_s = rates(workload.ops, times)
        enumerations()
        tail_pass_times = tail_passes(workload.ops, times, outputs, seed, seconds * TAIL_SHARE, clock)
        enumerations()
        walls.append(perf_counter())

    gc.unfreeze()
    tally.record(None if all(s.fingerprint == workload.fingerprint for s in states)
                 else "set-ups with one seed made different inputs")
    tally.judge_all(workload, outputs, enumerations.results)
    for problem in cold.problems:
        tally.record(problem)
    walls.append(perf_counter())

    phases = ("setup", "timed", "checks")
    detail.update(wall_s={p: b - a for p, a, b in zip(phases, walls, walls[1:])},
                  speed=clock.summary(), setup_s=setup_times, pass_s=pass_times,
                  tail_pass_s=tail_pass_times,
                  enumerate_s=enumerations.times, enumerate_wall_s=enumerations.wall_s,
                  cold_start_cpu_ms=[t * 1e3 for t in cold.times],
                  reference_child_cpu_ms=[t * 1e3 for t in cold.reference_times])
    metrics = {"setup_s": (median(setup_times), "s")}
    metrics.update(latency_metrics(workload.ops, times, per_s, detail))
    metrics["enumerate_s"] = (median(enumerations.times), "s")
    metrics["cold_start_ms"] = (cold.reference_ms(), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced_run(name, build, seed, seconds, tiny, workdir, tally, detail) -> dict:
    from speed import Speedometer
    from spans import Tracer, installed

    tracer = Tracer()
    with installed(tracer), tracer.recording("setup", observe=False):
        workload = build(seed, workdir, tiny)
    order = list(range(len(workload.ops)))
    random.Random(seed).shuffle(order)
    settle()
    with Speedometer() as clock:
        _, outputs, untraced = run_passes(workload.ops, order, seconds / 2, clock)
        with installed(tracer), tracer.recording("pass"):
            _, traced_outputs, (traced,) = run_passes(workload.ops, order, 0, clock, tracer=tracer)
    with installed(tracer), tracer.recording("enumerate"):
        tracer.op = "enumerate"
        families = enumerate_all(workload.models)
    gc.unfreeze()

    tally.judge_all(workload, outputs + traced_outputs, [families])

    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / median(untraced), "ratio")
    detail.update(untraced_pass_s=untraced, traced_pass_s=traced,
                  spans_dropped=tracer.write_spans(OUT / f"spans-{name}.jsonl"))
    return metrics


def run(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload, print its report and return the result object."""
    import_library()
    from workloads import WORKLOADS

    # One processor for the run and its cold starts: the speedometer samples
    # the processor the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tally, detail = Tally(), {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        args = (WORKLOADS[name], seed, seconds, tiny, Path(tmp), tally, detail)
        metrics = traced_run(name, *args) if trace else untraced_run(*args)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seconds": seconds, "trace": trace, "tiny": tiny,
              "machine": machine(seed), "failed_share": tally.failed / tally.attempted,
              "problems": tally.problems, "detail": detail, "result": result}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine: " + json.dumps(record["machine"]))
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(f"failed_share: {record['failed_share']} share ({tally.failed} of {tally.attempted})")
    for kind in ("decompose", "command"):
        if kind in detail:
            d = detail[kind]
            print(f"{kind}: n={d['n']} ops, {d['runs']} runs, p50 {d['p50_ms']:.4f} ms, "
                  f"p{100 * d['tail_quantile']:.4g} {d['tail_ms']:.4f} ms, {d['per_s']:.2f}/s")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value} {unit}")
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pool", "delpezzo", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
