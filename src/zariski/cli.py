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
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from . import bundle
from .cone import InvalidModelError
from .engine import (
    NotPseudoEffectiveError,
    decompose,
    enumerate_exceptional_families,
    verify_certificate,
)
from .exact import SquarefreeBoundError, combine
from .fixtures import GenerationExhaustedError, gen_model, parse_spec_literal
from .serialize import (
    FormatError,
    decimal_approx,
    decomposition_from_json,
    decomposition_to_json,
    format_rational,
    load_json,
    load_model,
    model_to_json,
    parse_base_literal,
    parse_class_literal,
    scalar_to_json,
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


def _load_valid_model(path: str):
    model = load_model(path)
    model.require_valid()
    return model


def cmd_decompose(args) -> tuple[dict, dict | None, int]:
    model = _load_valid_model(args.model)
    alpha = parse_class_literal(getattr(args, "class"), model.rank)
    dec = decompose(model, alpha)
    result = decomposition_to_json(model, dec)
    return result, result["certificate"], EXIT_OK


def cmd_exceptional(args) -> tuple[dict, dict | None, int]:
    model = _load_valid_model(args.model)
    families = enumerate_exceptional_families(model, args.max_size)
    effective_cap = model.rank if args.max_size is None else min(args.max_size, model.rank)
    result = {
        "families": [list(f) for f in families],
        "count": len(families),
        "max_size": effective_cap,
    }
    return result, None, EXIT_OK


def cmd_chambers(args) -> tuple[dict, dict | None, int]:
    model = _load_valid_model(args.model)
    data = load_json(args.classes)
    if not isinstance(data, list):
        raise FormatError("class list file must hold a JSON array of classes")
    entries = []
    for item in data:
        vec = vector_from_json(item, model.rank)
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
    base = parse_base_literal(args.base)
    mu = bundle.mu_L(base)
    roots = bundle.mu_candidates(base)
    z, coeff = bundle.decompose_bundle(base, bundle.L)
    vol = bundle.volume_L(base)
    result = {
        "base": {
            "D^2": format_rational(base.d_sq),
            "D.H": format_rational(base.dh),
            "H^2": format_rational(base.h_sq),
        },
        "mu": scalar_to_json(mu),
        "mu_decimal": decimal_approx(mu),
        "mu_roots": [scalar_to_json(r) for r in roots],
        "zariski_class": {
            "L": scalar_to_json(z.t),
            "pi*D": scalar_to_json(z.x),
            "pi*H": scalar_to_json(z.y),
        },
        "negative_coefficient": scalar_to_json(coeff),
        "volume": scalar_to_json(vol),
        "volume_decimal": decimal_approx(vol),
        "volume_is_rational": bundle.is_rational(vol),
        "note": "decimal fields are approximate (12 places); "
        "'mu' and 'volume' are exact",
    }
    return result, None, EXIT_OK


def cmd_check(args) -> tuple[dict, dict | None, int]:
    model = _load_valid_model(args.model)
    doc = decomposition_from_json(load_json(args.decomposition))
    if len(doc.alpha) != model.rank or len(doc.positive_part) != model.rank:
        raise FormatError(
            "decomposition vectors do not match the model rank "
            f"{model.rank}"
        )
    # Re-derive the positive part from the raw class and the stored
    # coefficients, so tampering with either side is caught by the
    # certificate conditions themselves rather than trusted fields.
    vec_of = model.prime_vec
    derived = combine(
        doc.alpha,
        ((-c, vec_of[n]) for n, c in doc.negative_coeffs.items() if n in vec_of),
    )
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
    qzz = model.q(derived, derived)
    recomputed_volume = qzz**model.m
    if recomputed_volume != doc.volume:
        violations.append(
            f"stored volume {doc.volume} differs from recomputed "
            f"{recomputed_volume}"
        )
    result = {
        "violations": violations,
        "volume_recomputed": format_rational(recomputed_volume),
        "ok": not violations,
    }
    code = EXIT_OK if not violations else EXIT_CHECK_FAILED
    return result, asdict(cert), code


def cmd_validate(args) -> tuple[dict, dict | None, int]:
    model = load_model(args.model)
    report = model.validate()
    result = {
        "violations": list(report.violations),
        "warnings": list(report.warnings),
        "ok": report.ok,
    }
    return result, None, EXIT_OK if report.ok else EXIT_INVALID_INPUT


def cmd_fixtures(args) -> tuple[dict, dict | None, int]:
    spec = parse_spec_literal(args.spec)
    model = gen_model(spec)
    document = model_to_json(model)
    result = {
        "spec": asdict(spec),
        "model": document,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
        result["written"] = args.out
    return result, None, EXIT_OK


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "json", "pretty"}
    return {
        k: v
        for k, v in vars(args).items()
        if k not in skip and v is not None
    }


def _render_pretty(value, indent: int = 0) -> list[str]:
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
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print("\n".join(_render_pretty(report)))
    else:
        print(json.dumps(report, indent=2, default=str))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zariski",
        description="Exact divisorial Zariski decompositions on Lorentzian lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--json", action="store_true", help="machine-readable report (default)"
        )
        mode.add_argument(
            "--pretty", action="store_true", help="human-readable report"
        )
        return p

    p = add("decompose", cmd_decompose, "decompose a class against a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument(
        "--class",
        required=True,
        help='comma-separated rational class, e.g. "1,2" or "1,5/3,-1"',
    )

    p = add("exceptional", cmd_exceptional, "enumerate exceptional families")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--max-size", type=int, default=None, help="family size cap")

    p = add("chambers", cmd_chambers, "label classes by negative-part support")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--classes", required=True, help="JSON array of classes")

    p = add("cutkosky", cmd_cutkosky, "decompose the tautological bundle class")
    p.add_argument(
        "--base",
        required=True,
        help='base pairings "D^2,D.H,H^2", e.g. "1,2,1"',
    )

    p = add("check", cmd_check, "re-verify a stored decomposition")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--decomposition", required=True, help="decomposition JSON file")

    p = add("validate", cmd_validate, "validate a model file")
    p.add_argument("--model", required=True, help="model JSON file")

    p = add("fixtures", cmd_fixtures, "generate a random model")
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
        result, certificate, code = args.handler(args)
    except NotPseudoEffectiveError as exc:
        report["error"] = {
            "category": "not-pseudo-effective",
            "reason": exc.reason,
            "detail": {k: str(v) for k, v in exc.detail.items()},
        }
        code = EXIT_NOT_PSEUDO_EFFECTIVE
    except (
        FormatError,
        InvalidModelError,
        GenerationExhaustedError,
        SquarefreeBoundError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
    ) as exc:
        report["error"] = {"category": "invalid-input", "message": str(exc)}
        code = EXIT_INVALID_INPUT
    else:
        report["result"] = result
        if certificate is not None:
            report["certificate"] = certificate
    report["timing_ms"] = round((perf_counter() - started) * 1000, 3)
    _emit(report, getattr(args, "pretty", False))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
