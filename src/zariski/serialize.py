"""JSON serialization of models, decompositions, and exact scalars.

Rationals travel as strings (``"p/q"`` or ``"p"``), quadratic extensions
as ``{"a": "p/q", "b": "p/q", "d": n}`` objects.  Decimal strings produced
here are display-only approximations computed with integer arithmetic;
they never feed back into any computation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Sequence

from .cone import ConeModel, PrimeClass
from .engine import Decomposition, _volume
from .exact import QuadExt, Scalar, SymmetricForm, Vector


class FormatError(ValueError):
    """An input document does not match the expected shape."""


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    if isinstance(value, str):
        try:  # most entries are integers, and int parses them without a regex
            return Fraction(int(value))
        except ValueError:
            pass
        if "e" in value.lower():
            # Fraction would build 10**exponent before any size check.
            raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
    raise FormatError(f"expected a rational, got {type(value).__name__}")


def to_text(value: Any) -> str:
    """``str(value)``, refusing a number past the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError as exc:
        raise FormatError(f"number too large to print: {exc}") from exc


def scalar_to_json(value: Scalar) -> Any:
    if isinstance(value, QuadExt):
        if value.is_rational:
            return to_text(value.a)
        to_text(value.d)  # d goes out as a JSON number, printed by the writer
        return {"a": to_text(value.a), "b": to_text(value.b), "d": value.d}
    return to_text(value)


def vector_to_json(vec: Sequence[Fraction]) -> list[str]:
    return [to_text(x) for x in vec]


class Literals(dict):
    """The rationals of one document by literal string, each parsed when first met.

    Equal strings then share one immutable Fraction.  Make one per document:
    it is not a cache across documents.  A literal that fails to parse is
    not stored, so it raises again with the same message.
    """

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_rational(text)
        return value

    def parse(self, value: Any) -> Fraction:
        """``parse_rational(value)``, looked up here when it is a string."""
        return self[value] if type(value) is str else parse_rational(value)


def vector_from_json(data: Any, literals: Literals, rank: int | None = None) -> Vector:
    if not isinstance(data, list):
        raise FormatError(f"expected a list of rationals, got {type(data).__name__}")
    vec = tuple(map(literals.parse, data))
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
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise FormatError(f"rank must be a positive integer, got {rank!r}")
    form_rows = data["form"]
    if not isinstance(form_rows, list) or len(form_rows) != rank:
        raise FormatError(f"form must be a {rank}x{rank} matrix")
    literals = Literals()
    rows = tuple(vector_from_json(row, literals, rank) for row in form_rows)
    primes = data["primes"]
    if not isinstance(primes, dict):
        raise FormatError("primes must be an object mapping names to vectors")
    prime_classes = tuple(PrimeClass(name, vector_from_json(vec, literals))
                          for name, vec in primes.items())
    ample = vector_from_json(data["ample"], literals)
    try:  # the vectors hold Fractions already, so they are not coerced again
        return ConeModel(SymmetricForm(rows), prime_classes, ample, data.get("m", 1))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_model(path: str | Path) -> ConeModel:
    return model_from_json(load_json(path))


def dump_model(model: ConeModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key that appears twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        raise FormatError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return out


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # a duplicate key, or an integer past the digit limit
        raise FormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc


# ---------------------------------------------------------------------------
# decomposition documents
# ---------------------------------------------------------------------------


def decomposition_to_json(model: ConeModel, dec: Decomposition) -> dict:
    return {
        "alpha": vector_to_json(dec.alpha),
        "positive_part": vector_to_json(dec.positive_part),
        "negative_part": {
            name: to_text(c) for name, c in dec.negative_coeffs.items()
        },
        "support": list(dec.support),
        "volume": to_text(_volume(model, dec.positive_part)),
        "certificate": dec.certificate._asdict(),
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
    if not isinstance(certificate, dict) or not all(
        isinstance(v, bool) for v in certificate.values()
    ):
        raise FormatError("certificate must be an object of booleans")
    iterations = data.get("iterations", 0)
    if isinstance(iterations, bool) or not isinstance(iterations, int):
        raise FormatError(f"iterations must be an integer, got {iterations!r}")
    literals = Literals()
    return DecompositionDocument(
        alpha=vector_from_json(data["alpha"], literals),
        positive_part=vector_from_json(data["positive_part"], literals),
        negative_coeffs={n: literals.parse(c) for n, c in negative.items()},
        support=tuple(support),
        volume=literals.parse(data["volume"]),
        certificate=certificate,
        iterations=iterations,
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
    from .bundle import BaseSurface  # here, so that loading serialize leaves bundle unloaded

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

_PLACES = 12
_GUARD_DIGITS = 15


def decimal_approx(value: Scalar) -> str:
    """Decimal string of an exact scalar, correct to 12 places.

    Computed entirely with integer arithmetic (scaled floors and integer
    square roots); intended for human-facing reports only.
    """
    shift = 10 ** (_PLACES + _GUARD_DIGITS)
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
    int_part, frac_part = divmod(digits, 10**_PLACES)
    return f"{sign}{to_text(int_part)}.{frac_part:0{_PLACES}d}"
