"""Command-line interface.

Every invocation prints a single JSON run report to stdout (or an indented
human-readable rendering with ``--pretty``) and exits with a code that is a
total function of the outcome category:

    0  success
    1  certificate check failure
    2  class outside the pseudo-effective cone
    3  invalid input (malformed files, infeasible specs, bad literals)
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from time import perf_counter

from .cone import InvalidModelError
from .engine import (
    Decomposition,
    NotPseudoEffectiveError,
    _volume,
    decompose,
    enumerate_exceptional_families,
    family_cap,
    verify_certificate,
)
from .exact import combine
from .serialize import (
    FormatError,
    Literals,
    decimal_approx,
    decomposition_from_json,
    decomposition_to_json,
    dump_model,
    load_json,
    load_model,
    model_to_json,
    parse_base_literal,
    parse_class_literal,
    scalar_to_json,
    to_text,
    vector_from_json,
    vector_to_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_PSEUDO_EFFECTIVE = 2
EXIT_INVALID_INPUT = 3


# ---------------------------------------------------------------------------
# command handlers: each returns (result, certificate_or_None, exit_code)
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> tuple[dict, dict | None, int]:
    model = load_model(args.model).require_valid()
    alpha = parse_class_literal(getattr(args, "class"), model.rank)
    dec = decompose(model, alpha)
    result = decomposition_to_json(model, dec)
    return result, result["certificate"], EXIT_OK


def cmd_exceptional(args) -> tuple[dict, dict | None, int]:
    if args.max_size is not None and args.max_size < 0:
        raise FormatError(f"--max-size must be nonnegative, got {args.max_size}")
    model = load_model(args.model).require_valid()
    families = enumerate_exceptional_families(model, args.max_size)
    result = {
        "families": [list(f) for f in families],
        "count": len(families),
        "max_size": family_cap(model, args.max_size),
    }
    return result, None, EXIT_OK


def cmd_chambers(args) -> tuple[dict, dict | None, int]:
    model = load_model(args.model).require_valid()
    data = load_json(args.classes)
    if not isinstance(data, list):
        raise FormatError("class list file must hold a JSON array of classes")
    entries = []
    literals = Literals()
    for item in data:
        vec = vector_from_json(item, literals, model.rank)
        entry: dict = {"class": vector_to_json(vec)}
        try:
            dec = decompose(model, vec)
        except NotPseudoEffectiveError as exc:
            entry["pseudo_effective"] = False
            entry["reason"] = exc.reason
        else:
            entry["pseudo_effective"] = True
            entry["support"] = list(dec.support)
        entries.append(entry)
    return {"chambers": entries, "count": len(entries)}, None, EXIT_OK


def cmd_cutkosky(args) -> tuple[dict, dict | None, int]:
    from . import bundle  # the only command that uses it; the others never load it

    base = parse_base_literal(args.base)
    # L is pseudo-effective and its g(0) = -H is not nef on any base, so the
    # one solve of L's threshold quadratic gives both the roots and the split
    roots, z, mu = bundle._threshold_split(base, bundle.L)
    vol = bundle.intersect3(base, z, z, z)
    return _cutkosky_result(base, roots, z, mu, vol), None, EXIT_OK


def _cutkosky_result(base, roots, z, mu, vol) -> dict:
    """The ``cutkosky`` result for L's split ``z + mu*E`` over ``base``, given
    the roots of L's threshold quadratic and the volume ``z^3``."""
    from .bundle import is_rational

    return {
        "base": {"D^2": to_text(base.d_sq), "D.H": to_text(base.dh), "H^2": to_text(base.h_sq)},
        "mu": scalar_to_json(mu),
        "mu_decimal": decimal_approx(mu),
        "mu_roots": [scalar_to_json(r) for r in roots],
        "zariski_class": {"L": scalar_to_json(z.t), "pi*D": scalar_to_json(z.x),
                          "pi*H": scalar_to_json(z.y)},
        "negative_coefficient": scalar_to_json(mu),
        "volume": scalar_to_json(vol),
        "volume_decimal": decimal_approx(vol),
        "volume_is_rational": is_rational(vol),
        "note": "decimal fields are approximate (12 places); 'mu' and 'volume' are exact",
    }


def cmd_check(args) -> tuple[dict, dict | None, int]:
    model = load_model(args.model).require_valid()
    doc = decomposition_from_json(load_json(args.decomposition))
    if len(doc.alpha) != model.rank or len(doc.positive_part) != model.rank:
        raise FormatError(
            "decomposition vectors do not match the model rank "
            f"{model.rank}"
        )
    # Re-derive the positive part from the raw class and the stored
    # coefficients, so tampering with either side is caught by the
    # certificate conditions themselves rather than trusted fields.
    derived = combine(doc.alpha, ((-c, model.prime_vec[n])
                                  for n, c in doc.negative_coeffs.items() if n in model.prime_vec))
    cert, violations = verify_certificate(
        model, doc.alpha, derived, doc.negative_coeffs
    )
    if doc.positive_part != derived:
        violations.append(
            "stored positive part does not match the input class minus "
            "the negative part"
        )
    derived_support = [n for n, c in doc.negative_coeffs.items() if c > 0]
    if sorted(doc.support) != sorted(derived_support):
        violations.append(
            "stored support does not match the strictly positive coefficients"
        )
    recomputed_volume = _volume(model, derived)
    volume_text = to_text(recomputed_volume)
    if recomputed_volume != doc.volume:
        violations.append(
            f"stored volume {doc.volume} differs from recomputed {volume_text}"
        )
    if doc.certificate and doc.certificate != Decomposition.certificate._asdict():
        violations.append("stored certificate is not the all-passed certificate")
    result = {
        "violations": violations,
        "volume_recomputed": volume_text,
        "ok": not violations,
    }
    code = EXIT_OK if not violations else EXIT_CHECK_FAILED
    return result, cert._asdict(), code


def cmd_validate(args) -> tuple[dict, dict | None, int]:
    report = load_model(args.model).report
    result = {
        "violations": list(report.violations),
        "warnings": list(report.warnings),
        "ok": report.ok,
    }
    return result, None, EXIT_OK if report.ok else EXIT_INVALID_INPUT


def cmd_fixtures(args) -> tuple[dict, dict | None, int]:
    from .fixtures import GenerationExhaustedError, gen_model, parse_spec_literal

    spec = parse_spec_literal(args.spec)
    try:
        model = gen_model(spec)
    except GenerationExhaustedError as exc:
        raise FormatError(str(exc)) from exc
    result = {
        "spec": asdict(spec),
        "model": model_to_json(model),
    }
    if args.out:
        dump_model(model, args.out)
        result["written"] = args.out
    return result, None, EXIT_OK


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "pretty"}
    return {
        k: v
        for k, v in vars(args).items()
        if k not in skip and v is not None
    }


def _render_pretty(value: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_pretty(v, indent + 1))
            else:
                rendering = v if not isinstance(v, (dict, list)) else "(empty)"
                lines.append(f"{pad}{k}: {rendering}")
    else:
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    return lines


def _emit(report: dict, pretty: bool) -> None:
    text = "\n".join(_render_pretty(report)) if pretty else json.dumps(report, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and argparse looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints, so in-process callers share it.
    """
    parser = argparse.ArgumentParser(
        prog="zariski",
        description="Exact divisorial Zariski decompositions on Lorentzian lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, model: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="human-readable report")
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        return p

    p = add("decompose", cmd_decompose, "decompose a class against a model")
    p.add_argument(
        "--class",
        required=True,
        help='comma-separated rational class, e.g. "1,2" or "1,5/3,-1"',
    )

    p = add("exceptional", cmd_exceptional, "enumerate exceptional families")
    p.add_argument("--max-size", type=int, default=None, help="family size cap")

    p = add("chambers", cmd_chambers, "label classes by negative-part support")
    p.add_argument("--classes", required=True, help="JSON array of classes")

    p = add("cutkosky", cmd_cutkosky, "decompose the tautological bundle class", model=False)
    p.add_argument(
        "--base",
        required=True,
        help='base pairings "D^2,D.H,H^2", e.g. "1,2,1"',
    )

    p = add("check", cmd_check, "re-verify a stored decomposition")
    p.add_argument("--decomposition", required=True, help="decomposition JSON file")

    add("validate", cmd_validate, "validate a model file")

    p = add("fixtures", cmd_fixtures, "generate a random model", model=False)
    p.add_argument(
        "--spec",
        required=True,
        help='fixture spec "rank,primes,seed[,bound]", e.g. "3,2,7"',
    )
    p.add_argument("--out", default=None, help="write the model file here")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own usage message; remap the exit category
        return EXIT_OK if exc.code == 0 else EXIT_INVALID_INPUT
    started = perf_counter()
    report: dict = {"command": args.command, "inputs": _echo_inputs(args)}
    try:
        try:
            result, certificate, code = args.handler(args)
        except NotPseudoEffectiveError as exc:
            report["error"] = {
                "category": "not-pseudo-effective",
                "reason": exc.reason,
                "detail": {k: to_text(v) for k, v in exc.detail.items()},
            }
            code = EXIT_NOT_PSEUDO_EFFECTIVE
        else:
            report["result"] = result
            if certificate is not None:
                report["certificate"] = certificate
    except (FormatError, InvalidModelError, OSError, OverflowError) as exc:
        report["error"] = {"category": "invalid-input", "message": str(exc)}
        code = EXIT_INVALID_INPUT
    report["timing_ms"] = round((perf_counter() - started) * 1000, 3)
    _emit(report, args.pretty)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
