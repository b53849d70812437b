"""JSON serialization of models, decompositions, and exact scalars.

Rationals travel as strings (``"p/q"`` or ``"p"``), quadratic extensions
as ``{"a": "p/q", "b": "p/q", "d": n}`` objects.  Decimal strings produced
here are display-only approximations computed with integer arithmetic;
they never feed back into any computation.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Mapping, Sequence

from .bundle import BaseSurface
from .cone import ConeModel, cone_model
from .engine import Certificate, Decomposition
from .exact import QuadExt, Scalar, Vector, inner


class FormatError(ValueError):
    """An input document does not match the expected shape."""


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
    raise FormatError(f"expected a rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def scalar_to_json(value: Scalar) -> Any:
    if isinstance(value, QuadExt):
        if value.is_rational:
            return format_rational(value.as_fraction())
        return value.to_dict()
    return format_rational(value)


def scalar_from_json(value: Any) -> Scalar:
    if isinstance(value, dict):
        try:
            return QuadExt.from_dict(value)
        except (KeyError, ValueError) as exc:
            raise FormatError(f"not a quadratic scalar: {value!r}") from exc
    return parse_rational(value)


def vector_to_json(vec: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in vec]


def vector_from_json(data: Any, rank: int | None = None) -> Vector:
    if not isinstance(data, list):
        raise FormatError(f"expected a list of rationals, got {type(data).__name__}")
    vec = tuple(parse_rational(x) for x in data)
    if rank is not None and len(vec) != rank:
        raise FormatError(f"expected a vector of length {rank}, got {len(vec)}")
    return vec


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------


def model_to_json(model: ConeModel) -> dict:
    return {
        "rank": model.rank,
        "form": [vector_to_json(row) for row in model.form.entries],
        "primes": {p.name: vector_to_json(p.vec) for p in model.primes},
        "ample": vector_to_json(model.h),
        "m": model.m,
    }


def model_from_json(data: Any) -> ConeModel:
    if not isinstance(data, dict):
        raise FormatError("model document must be a JSON object")
    missing = {"rank", "form", "primes", "ample"} - set(data)
    if missing:
        raise FormatError(f"model document lacks fields: {sorted(missing)}")
    rank = data["rank"]
    if not isinstance(rank, int) or rank < 1:
        raise FormatError(f"rank must be a positive integer, got {rank!r}")
    form_rows = data["form"]
    if not isinstance(form_rows, list) or len(form_rows) != rank:
        raise FormatError(f"form must be a {rank}x{rank} matrix")
    rows = [vector_from_json(row, rank) for row in form_rows]
    primes = data["primes"]
    if not isinstance(primes, dict):
        raise FormatError("primes must be an object mapping names to vectors")
    prime_items = [(name, vector_from_json(vec, rank)) for name, vec in primes.items()]
    ample = vector_from_json(data["ample"], rank)
    m = data.get("m", 1)
    if not isinstance(m, int) or m < 1:
        raise FormatError(f"m must be a positive integer, got {m!r}")
    try:
        return cone_model(rows, prime_items, ample, m)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_model(path: str | Path) -> ConeModel:
    return model_from_json(load_json(path))


def dump_model(model: ConeModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


# ---------------------------------------------------------------------------
# decomposition documents
# ---------------------------------------------------------------------------


def decomposition_to_json(model: ConeModel, dec: Decomposition) -> dict:
    qzz = inner(model.form, dec.positive_part, dec.positive_part)
    return {
        "alpha": vector_to_json(dec.alpha),
        "positive_part": vector_to_json(dec.positive_part),
        "negative_part": {
            name: format_rational(c) for name, c in dec.negative_coeffs.items()
        },
        "support": list(dec.support),
        "volume": format_rational(qzz**model.m),
        "certificate": asdict(dec.certificate),
        "iterations": dec.iterations,
    }


@dataclass(frozen=True)
class DecompositionDocument:
    """Raw decomposition data as read back from disk (unverified)."""

    alpha: Vector
    positive_part: Vector
    negative_coeffs: dict[str, Fraction]
    support: tuple[str, ...]
    volume: Fraction
    certificate: dict[str, bool]
    iterations: int


def decomposition_from_json(data: Any) -> DecompositionDocument:
    if not isinstance(data, dict):
        raise FormatError("decomposition document must be a JSON object")
    required = {"alpha", "positive_part", "negative_part", "support", "volume"}
    missing = required - set(data)
    if missing:
        raise FormatError(f"decomposition document lacks fields: {sorted(missing)}")
    negative = data["negative_part"]
    if not isinstance(negative, dict):
        raise FormatError("negative_part must be an object mapping names to rationals")
    support = data["support"]
    if not isinstance(support, list) or not all(isinstance(s, str) for s in support):
        raise FormatError("support must be a list of prime names")
    certificate = data.get("certificate", {})
    if not isinstance(certificate, dict):
        raise FormatError("certificate must be an object of booleans")
    iterations = data.get("iterations", 0)
    if not isinstance(iterations, int):
        raise FormatError(f"iterations must be an integer, got {iterations!r}")
    return DecompositionDocument(
        alpha=vector_from_json(data["alpha"]),
        positive_part=vector_from_json(data["positive_part"]),
        negative_coeffs={n: parse_rational(c) for n, c in negative.items()},
        support=tuple(support),
        volume=parse_rational(data["volume"]),
        certificate={k: bool(v) for k, v in certificate.items()},
        iterations=iterations,
    )


def rebuild_decomposition(
    model: ConeModel, doc: DecompositionDocument
) -> Decomposition:
    """Reconstitute an exact Decomposition value from a stored document."""
    return Decomposition(
        alpha=doc.alpha,
        positive_part=doc.positive_part,
        negative_coeffs=dict(doc.negative_coeffs),
        support=doc.support,
        iterations=doc.iterations,
        certificate=Certificate(
            **{f.name: doc.certificate.get(f.name, False) for f in fields(Certificate)}
        ),
    )


# ---------------------------------------------------------------------------
# CLI literals
# ---------------------------------------------------------------------------


def parse_class_literal(text: str, rank: int | None = None) -> Vector:
    """Parse a comma-separated class literal like ``"1,-2,5/3"``."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise FormatError("empty class literal")
    vec = tuple(parse_rational(p) for p in parts)
    if rank is not None and len(vec) != rank:
        raise FormatError(
            f"class literal has {len(vec)} entries, model expects {rank}"
        )
    return vec


def parse_base_literal(text: str) -> BaseSurface:
    """Parse ``"D^2,D.H,H^2"`` pairing data like ``"1,2,1"``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise FormatError(
            f"base literal needs exactly three entries D^2,D.H,H^2, got {text!r}"
        )
    d_sq, dh, h_sq = (parse_rational(p) for p in parts)
    try:
        return BaseSurface(d_sq, dh, h_sq)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# display-only decimal approximation
# ---------------------------------------------------------------------------

_GUARD_DIGITS = 15


def decimal_approx(value: Scalar, places: int = 12) -> str:
    """Decimal string of an exact scalar, correct to `places` digits.

    Computed entirely with integer arithmetic (scaled floors and integer
    square roots); intended for human-facing reports only.
    """
    shift = 10 ** (places + _GUARD_DIGITS)
    if isinstance(value, QuadExt):
        a, b, d = value.a, value.b, value.d
    else:
        a, b, d = Fraction(value), Fraction(0), 0
    scaled_a = a * shift
    total = scaled_a.numerator // scaled_a.denominator
    if b:
        scaled_b = b * shift
        u, w = abs(scaled_b.numerator), scaled_b.denominator
        radical_floor = isqrt(u * u * d) // w
        if b > 0:
            total += radical_floor
        else:
            exact = (u * u * d) == (radical_floor * w) ** 2
            total -= radical_floor if exact else radical_floor + 1
    guard = 10**_GUARD_DIGITS
    digits = (total + guard // 2) // guard
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    int_part, frac_part = divmod(digits, 10**places)
    return f"{sign}{int_part}.{frac_part:0{places}d}"
