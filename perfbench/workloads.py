"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Every workload gives the same four kinds of measurement, so every end-to-end
metric exists on every workload:

- ``decompose`` operations call ``zariski.engine.decompose`` directly;
- ``command`` operations call ``zariski.cli.main`` in-process;
- ``models`` are enumerated with ``enumerate_exceptional_families``;
- ``cold_argv`` is run once per cold start as ``python -m zariski.cli``.

The workloads differ in what they feed those calls:

The models are fixed; the seed draws the order of operations, the samples
the oracles check and, on ``delpezzo``, the classes.

- ``pool``: the 200-model fixture grid with the test suite's 5 generated
  pseudo-effective classes per model, the small-model success path; set-up
  is dominated by class generation.
- ``delpezzo``: the del Pezzo lattices r = 4, 5, 6 with many classes per
  model; pairings and the certificate's dual-nef scan dominate, supports
  repeat, and enumeration has known counts.
- ``cli``: the grid models with arbitrary integer classes, most of which are
  refused, driven through ``chambers``, ``decompose``, ``check`` and
  ``cutkosky``; the only workload that reaches ``serialize`` rendering,
  ``bundle`` and ``QuadExt``.

Layer functions are always looked up on their module at call time
(``engine.decompose``, ``cli.main``), so a traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Hashable

from zariski import FixtureSpec, cli, engine, fixtures, serialize
from zariski.engine import Decomposition, NotPseudoEffectiveError

import delpezzo
import verify

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
CUTKOSKY_KNOWN = ("1,2,1", {"a": "0", "b": "1/6", "d": 3})


@dataclass
class Op:
    """One timed call; ``check`` judges ``summarize(output)`` after timing."""

    kind: str  # "decompose" or "command"
    run: Callable[[], Any]
    check: Callable[[Hashable], str | None]


@dataclass
class Workload:
    ops: list[Op]
    models: list
    check_families: Callable[[list[list[tuple]]], str | None]
    cold_argv: list[str]
    cold_check: Callable[[Hashable], str | None]
    # (name, check) pairs run on the first summary of every op, by op index
    known_answers: list[tuple[str, Callable[[list], str | None]]]
    fingerprint: Any  # equal across set-ups with the same seed


# ---------------------------------------------------------------------------
# calls and their summaries
# ---------------------------------------------------------------------------


def call_decompose(model, alpha):
    return engine.decompose(model, alpha)


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def summarize(out) -> Hashable:
    """A hashable, timing-free digest of an operation's output."""
    if isinstance(out, Decomposition):
        coeffs = tuple((n, c) for n, c in out.negative_coeffs.items() if c)
        return ("ok", out.positive_part, coeffs, out.support, out.certificate.all_passed)
    if isinstance(out, NotPseudoEffectiveError):
        return ("refused", out.reason)
    if isinstance(out, Exception):
        return ("error", f"{type(out).__name__}: {out}")
    code, text = out
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ("error", f"exit {code} with non-JSON output {text[:200]!r}")
    report.pop("timing_ms", None)
    return ("exit", code, json.dumps(report, sort_keys=True))


def literal(vec) -> str:
    return ",".join(str(x) for x in vec)


def support_of(model, coeffs) -> tuple[str, ...]:
    return tuple(p.name for p in model.primes if coeffs.get(p.name))


def expect_decomposition(model, alpha, expected=None):
    """Check a library result; ``expected`` is a refusal reason or None."""

    def check(s):
        if expected is not None:
            return None if s == ("refused", expected) else f"expected refusal {expected}, got {s[:2]}"
        if s[0] != "ok":
            return f"expected a decomposition, got {s}"
        _, positive, coeffs, support, passed = s
        coeffs = dict(coeffs)
        if not passed:
            return "certificate did not pass"
        if support != support_of(model, coeffs):
            return f"support {support} does not match the coefficients"
        return verify.decomposition_problem(model, alpha, positive, coeffs)

    return check


def expect_cli_decompose(model, alpha, expected=None):
    """Check a ``decompose`` report; ``expected`` is a refusal reason or None."""

    def check(s):
        if s[0] != "exit":
            return f"decompose command failed: {s}"
        _, code, text = s
        report = json.loads(text)
        if expected is not None:
            reason = report.get("error", {}).get("reason")
            return None if (code, reason) == (2, expected) else f"expected exit 2/{expected}, got {code}/{reason}"
        if code != 0:
            return f"decompose exited {code}"
        result = report["result"]
        if not all(report["certificate"].values()):
            return "reported certificate did not pass"
        positive = tuple(Fraction(x) for x in result["positive_part"])
        coeffs = {n: Fraction(c) for n, c in result["negative_part"].items()}
        return verify.decomposition_problem(model, alpha, positive, coeffs)

    return check


def grid_specs(count: int) -> list[FixtureSpec]:
    """The test suite's fixture grid: ranks 2-6, feasible prime counts, fixed seeds."""
    specs = []
    for i in range(count):
        rank = 2 + i % 5
        cap = 2 if rank == 2 else min(rank, 6)
        specs.append(FixtureSpec(rank=rank, prime_count=i % (cap + 1),
                                 seed=1000 + i, coefficient_bound=3 + i % 2))
    return specs


def write_models(models, workdir: Path) -> list[str]:
    paths = []
    for i, model in enumerate(models):
        path = workdir / f"model{i}.json"
        serialize.dump_model(model, path)
        paths.append(str(path))
    return paths


def oracle_agrees(cases):
    """``brute_force_decompose`` gives every sampled op's verdict and answer."""

    def check(first):
        for i, model, alpha in cases:
            try:
                oracle = summarize(engine.brute_force_decompose(model, alpha))
            except NotPseudoEffectiveError:
                if first[i][0] != "refused":
                    return f"oracle refuses op {i}, engine gave {first[i][0]}"
                continue
            if first[i][:3] != oracle[:3]:
                return f"oracle and engine differ on op {i}"
        return None

    return check


def families_agree(models, indices):
    """Brute-force enumeration matches on the sampled models."""

    def check(outputs):
        for i in indices:
            if sorted(outputs[i]) != verify.exceptional_families(models[i]):
                return f"families of model {i} differ from brute force"
        return None

    return check


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


def pool(seed: int, workdir: Path, tiny: bool) -> Workload:
    n_models, n_classes, n_commands, n_oracle = (10, 2, 6, 5) if tiny else (200, 5, 100, 50)
    specs = grid_specs(n_models)
    models = [fixtures.gen_model(spec) for spec in specs]
    # The test suite's pool classes, whatever the seed: the tail of a fresh
    # draw of 1000 classes moves by 10-25 % from seed to seed.
    cases = [
        (i, fixtures.gen_pseudoeffective_class(models[i], spec.seed * 10 + k))
        for i, spec in enumerate(specs)
        for k in range(n_classes)
    ]
    paths = write_models(models, workdir)
    rng = random.Random(seed)

    ops = [
        Op("decompose", partial(call_decompose, models[i], alpha),
           expect_decomposition(models[i], alpha))
        for i, alpha in cases
    ]
    for i, alpha in cases[:: len(cases) // n_commands]:
        argv = ["decompose", "--model", paths[i], f"--class={literal(alpha)}"]
        ops.append(Op("command", partial(call_cli, argv), expect_cli_decompose(models[i], alpha)))

    want_digest = None if tiny else EXPECTED["pool_digest"]

    def digest_matches(first):
        got = answer_digest(first[: len(cases)])
        return None if want_digest in (None, got) else f"answer digest {got} != {want_digest}"

    sample = sorted(rng.sample(range(len(cases)), n_oracle))
    cold = max(range(len(cases)), key=lambda k: (models[cases[k][0]].rank, len(models[cases[k][0]].primes)))
    i, alpha = cases[cold]
    return Workload(
        ops=ops,
        models=models,
        check_families=families_agree(models, sorted(rng.sample(range(n_models), min(40, n_models)))),
        cold_argv=["decompose", "--model", paths[i], f"--class={literal(alpha)}"],
        cold_check=expect_cli_decompose(models[i], alpha),
        known_answers=[
            ("answer digest", digest_matches),
            ("oracle sample", oracle_agrees([(k, models[cases[k][0]], cases[k][1]) for k in sample])),
        ],
        fingerprint=(models, cases),
    )


def answer_digest(summaries) -> str:
    """sha256 over (positive part, nonzero coefficients) of each class, in order."""
    text = json.dumps([
        [[str(x) for x in s[1]], [[n, str(c)] for n, c in s[2]]] if s[0] == "ok" else list(s[:2])
        for s in summaries
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# delpezzo
# ---------------------------------------------------------------------------


def delpezzo_workload(seed: int, workdir: Path, tiny: bool) -> Workload:
    ranks, n_classes, n_commands, n_oracle = ((2, 3), 5, 2, 2) if tiny else ((4, 5, 6), 100, 20, 2)
    models = [delpezzo.del_pezzo(r).require_valid() for r in ranks]
    paths = write_models(models, workdir)
    rng = random.Random(seed)
    cases = []
    for i, model in enumerate(models):
        for k in range(n_classes):
            a = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            vec = [a * x for x in model.h]
            # 1 to 4 primes in turn, so that every seed has the same mix of sizes
            for prime in rng.sample(model.primes, 1 + k % min(4, len(model.primes))):
                c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                vec = [x + c * y for x, y in zip(vec, prime.vec)]
            cases.append((i, tuple(vec)))

    ops = [
        Op("decompose", partial(call_decompose, models[i], alpha),
           expect_decomposition(models[i], alpha))
        for i, alpha in cases
    ]
    for k in range(len(models)):
        for i, alpha in cases[k * n_classes : k * n_classes + n_commands]:
            argv = ["decompose", "--model", paths[i], f"--class={literal(alpha)}"]
            ops.append(Op("command", partial(call_cli, argv), expect_cli_decompose(models[i], alpha)))

    want_families = [EXPECTED["del_pezzo_families"][str(r)] for r in ranks]

    def family_counts(outputs):
        got = [len(families) for families in outputs]
        return None if got == want_families else f"family counts {got} != {want_families}"

    def prime_counts(_first):
        got = [len(m.primes) for m in models]
        want = [delpezzo.EXPECTED_PRIME_COUNTS[r] for r in ranks]
        return None if got == want else f"prime counts {got} != {want}"

    i, alpha = cases[-1]
    oracle_cases = [(k, models[0], cases[k][1]) for k in sorted(rng.sample(range(n_classes), n_oracle))]
    return Workload(
        ops=ops,
        models=models,
        check_families=family_counts,
        cold_argv=["decompose", "--model", paths[i], f"--class={literal(alpha)}"],
        cold_check=expect_cli_decompose(models[i], alpha),
        known_answers=[
            ("prime counts", prime_counts),
            ("oracle sample", oracle_agrees(oracle_cases)),
        ],
        fingerprint=(models, cases),
    )


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cutkosky_bases(max_entry: int) -> list[str]:
    """Every admissible integral base (D^2 H^2 <= (D.H)^2) with entries <= max_entry."""
    r = range(1, max_entry + 1)
    return [f"{a},{b},{c}" for a in r for b in r for c in r if a * c <= b * b]


def expect_cutkosky(base: str):
    def check(s):
        if s[0] != "exit" or s[1] != 0:
            return f"cutkosky {base} failed: {s[:2]}"
        result = json.loads(s[2])["result"]
        volume = result["volume"]
        if base == CUTKOSKY_KNOWN[0] and volume != CUTKOSKY_KNOWN[1]:
            return f"cutkosky {base} volume {volume} != {CUTKOSKY_KNOWN[1]}"
        exact = Fraction(volume) if isinstance(volume, str) else (
            Fraction(volume["a"]) + Fraction(volume["b"]) * volume["d"] ** 0.5)
        if abs(float(exact) - float(result["volume_decimal"])) > 1e-9:
            return f"cutkosky {base} decimal volume disagrees with the exact one"
        return None

    return check


def expect_chambers(model, batch, verdicts):
    def check(s):
        if s[0] != "exit" or s[1] != 0:
            return f"chambers failed: {s[:2]}"
        entries = json.loads(s[2])["result"]["chambers"]
        for entry, alpha, verdict in zip(entries, batch, verdicts, strict=True):
            if isinstance(verdict, str):
                if entry.get("reason") != verdict:
                    return f"chambers says {entry.get('reason')} for a {verdict} class"
            elif entry.get("support") != list(verdict.support):
                return f"chambers support {entry.get('support')} != {list(verdict.support)}"
        return None

    return check


def expect_check(expected_ok: bool):
    def check(s):
        if s[0] != "exit":
            return f"check command failed: {s}"
        want = 0 if expected_ok else 1
        ok = json.loads(s[2]).get("result", {}).get("ok")
        return None if (s[1], ok) == (want, expected_ok) else f"check exited {s[1]}, ok={ok}; want {want}"

    return check


def cli_workload(seed: int, workdir: Path, tiny: bool) -> Workload:
    n_models, per_model, n_checks, max_entry, n_oracle = (10, 4, 4, 2, 5) if tiny else (200, 10, 100, 6, 40)
    models = [fixtures.gen_model(spec) for spec in grid_specs(n_models)]
    paths = write_models(models, workdir)
    rng = random.Random(seed)
    # One draw of classes, whatever the seed: the tail of a fresh draw of
    # 2000 classes moves by up to 12 % from seed to seed.
    draw = random.Random(0)
    batches = [
        [tuple(Fraction(draw.randint(-4, 4)) for _ in range(m.rank)) for _ in range(per_model)]
        for m in models
    ]
    verdicts = []  # per model: a Decomposition or a refusal reason per class
    for model, batch in zip(models, batches):
        row = []
        for alpha in batch:
            try:
                row.append(engine.decompose(model, alpha))
            except NotPseudoEffectiveError as exc:
                row.append(exc.reason)
        verdicts.append(row)

    ops = []
    for i, (model, batch) in enumerate(zip(models, batches)):
        for alpha, verdict in zip(batch, verdicts[i]):
            reason = verdict if isinstance(verdict, str) else None
            ops.append(Op("decompose", partial(call_decompose, model, alpha),
                          expect_decomposition(model, alpha, reason)))
    n_library = len(ops)
    for i, (model, batch) in enumerate(zip(models, batches)):
        classes = workdir / f"classes{i}.json"
        classes.write_text(json.dumps([[str(x) for x in alpha] for alpha in batch]))
        ops.append(Op("command", partial(call_cli, ["chambers", "--model", paths[i], "--classes", str(classes)]),
                      expect_chambers(model, batch, verdicts[i])))
        reason = verdicts[i][0] if isinstance(verdicts[i][0], str) else None
        argv = ["decompose", "--model", paths[i], f"--class={literal(batch[0])}"]
        ops.append(Op("command", partial(call_cli, argv), expect_cli_decompose(model, batch[0], reason)))

    decomposed = [(i, d) for i, row in enumerate(verdicts) for d in row if not isinstance(d, str)]
    for k, (i, dec) in enumerate(decomposed[:n_checks]):
        doc = serialize.decomposition_to_json(models[i], dec)
        tampered = k % 4 == 3
        if tampered:
            doc["positive_part"][0] = str(Fraction(doc["positive_part"][0]) + 1)
        path = workdir / f"decomposition{k}.json"
        path.write_text(json.dumps(doc))
        ops.append(Op("command", partial(call_cli, ["check", "--model", paths[i], "--decomposition", str(path)]),
                      expect_check(not tampered)))
    for base in cutkosky_bases(max_entry):
        ops.append(Op("command", partial(call_cli, ["cutkosky", "--base", base]), expect_cutkosky(base)))

    want_histogram = None if tiny else EXPECTED["cli_verdicts"]

    def histogram_matches(first):
        got: dict[str, int] = {}
        for s in first[:n_library]:
            key = "decomposed" if s[0] == "ok" else s[1]
            got[key] = got.get(key, 0) + 1
        return None if want_histogram in (None, got) else f"verdicts {got} != {want_histogram}"

    flat = [(i, alpha) for i, batch in enumerate(batches) for alpha in batch]
    sample = sorted(rng.sample(range(n_library), n_oracle))
    cold = max(range(n_models), key=lambda k: (models[k].rank, len(models[k].primes)))
    reason = verdicts[cold][0] if isinstance(verdicts[cold][0], str) else None
    return Workload(
        ops=ops,
        models=models,
        check_families=families_agree(models, sorted(rng.sample(range(n_models), min(40, n_models)))),
        cold_argv=["decompose", "--model", paths[cold], f"--class={literal(batches[cold][0])}"],
        cold_check=expect_cli_decompose(models[cold], batches[cold][0], reason),
        known_answers=[
            ("verdict histogram", histogram_matches),
            ("oracle sample", oracle_agrees([(k, models[flat[k][0]], flat[k][1]) for k in sample])),
        ],
        fingerprint=(models, batches),
    )


WORKLOADS = {"pool": pool, "delpezzo": delpezzo_workload, "cli": cli_workload}
