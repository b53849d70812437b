"""Lorentzian lattice models: a form, a reference class, and prime classes.

A model packages an exact symmetric bilinear form of signature
``(1, rank-1)``, a reference class ``h`` of positive self-pairing that
selects the positive half-cone, and a finite list of named prime classes
against which decompositions are computed.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exact import (
    DimensionMismatchError,
    SymmetricForm,
    Vector,
    as_vector,
    clear_denominators,
    describe,
    dot,
    signature,
    symmetric_form,
)


class InvalidModelError(ValueError):
    """A cone model failed validation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class PrimeClass:
    """A named integral class, expected to pair nonnegatively with h."""

    name: str
    vec: Vector


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_Pack = tuple[tuple[int, ...], int, int]  # (columns, offset, limit) of :func:`_pack`


@dataclass(frozen=True)
class CompiledModel:
    """A model's pairings as integers over known positive denominators.

    ``form`` is ``scale * Q`` with ``scale`` the least positive integer that
    makes it integral; ``h`` and ``primes[i]`` are the integer vectors
    ``h_den * h`` and ``dens[i] * p_i``.  Hence ``qh = form · h`` gives
    ``q(h, p_i) = qh · primes[i] / (scale * h_den * dens[i])``, the image
    ``images[i] = form · primes[i]`` gives ``q(a, p_i) = a · images[i] /
    (scale * den * dens[i])`` for any integer vector ``a = den * alpha``, and
    the prime Gram ``gram[i][j] = primes[i] · form · primes[j]`` equals
    ``scale * dens[i] * dens[j] * q(p_i, p_j)``.  ``pack`` is :func:`_pack` of
    the images when there are more primes than coordinates, else ``None``.
    """

    scale: int
    form: tuple[tuple[int, ...], ...]
    h: tuple[int, ...]
    h_den: int
    primes: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    qh: tuple[int, ...]
    images: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    pack: _Pack | None


def _pack(images: Sequence[Sequence[int]]) -> _Pack | None:
    """``(columns, offset, limit)`` for :func:`_scan`, or ``None`` once an image's
    norm ``‖images[i]‖₁`` reaches ``2**63``.  ``columns[k]`` holds ``images[i][k]``
    in its 64-bit field ``i`` (Kronecker substitution; on a little-endian machine
    ``Σ_i images[i][k] · 2**(64 i)``), ``offset`` sets bit 63 of every field, and
    a class with every entry in ``[-limit, limit]`` pairs with each image inside
    ``(-2**63, 2**63)``."""
    norm = max(sum(map(abs, image)) for image in images)
    if norm >> 63:
        return None
    from array import array  # only a model that packs loads it

    def packed(fields):  # field i of the result is fields[i] in [0, 2**64)
        return int.from_bytes(array("Q", fields), sys.byteorder)

    offset = packed([1 << 63] * len(images))
    columns = tuple(packed([x + (1 << 63) for x in column]) - offset for column in zip(*images))
    return columns, offset, ((1 << 63) - 1) // max(norm, 1)


def _scan(images: Sequence[Sequence[int]], pack: _Pack | None, a: Sequence[int]) -> list[int]:
    """``[dot(a, image) for image in images]``, as one big-integer product when
    `pack` bounds every entry of ``a``.  Field ``i`` of ``Σ_k a_k columns[k] + offset``
    is ``a · images[i] + 2**63``, with no carry between fields; the XOR with
    ``offset`` takes ``2**63`` off each field modulo ``2**64``, which leaves
    ``a · images[i]`` as a signed 64-bit integer for ``memoryview.cast("q")``."""
    if pack is not None:
        columns, offset, limit = pack
        if -limit <= min(a) and max(a) <= limit:
            packed = sum(map(mul, a, columns), offset) ^ offset
            return memoryview(packed.to_bytes(8 * len(images), sys.byteorder)).cast("q").tolist()
    return [dot(a, image) for image in images]


@dataclass(frozen=True)
class ConeModel:
    """Immutable Lorentzian model; shape-checked on construction, then fixed."""

    form: SymmetricForm
    primes: tuple[PrimeClass, ...]
    h: Vector
    m: int

    def __post_init__(self):
        r = self.rank
        violations: list[str] = []
        if isinstance(self.m, bool) or not isinstance(self.m, int) or self.m < 1:
            violations.append(f"exponent m must be a positive integer, got {self.m!r}")
        if len(self.h) != r:
            violations.append(
                f"reference class has length {len(self.h)}, expected {r}"
            )
        for p in self.primes:
            if len(p.vec) != r:
                violations.append(
                    f"prime '{p.name}' has length {len(p.vec)}, expected {r}"
                )
        counts = Counter(p.name for p in self.primes)
        for name in sorted(n for n, k in counts.items() if k > 1):
            violations.append(f"duplicate prime name '{name}'")
        if violations:
            raise InvalidModelError(violations)

    @property
    def rank(self) -> int:
        return self.form.rank

    @cached_property
    def prime_vec(self) -> dict[str, Vector]:
        """Prime class vectors by name."""
        return {p.name: p.vec for p in self.primes}

    @cached_property
    def prime_position(self) -> dict[str, int]:
        """The index of each prime in ``primes`` and ``compiled``, by name."""
        return {p.name: i for i, p in enumerate(self.primes)}

    def prime_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.primes)

    @cached_property
    def compiled(self) -> CompiledModel:
        """The integer view of the form, ``h`` and the primes, built once."""
        form, scale = self.form.cleared
        h, h_den = clear_denominators(self.h)
        cleared = [clear_denominators(p.vec) for p in self.primes]
        primes = tuple(vec for vec, _ in cleared)
        dens = tuple(den for _, den in cleared)
        images = tuple(tuple(sum(map(mul, row, vec)) for row in form) for vec in primes)
        # packed only with more primes than coordinates: del Pezzo from r = 3, no grid model
        pack = _pack(images) if len(primes) > self.rank > 0 else None
        return CompiledModel(
            scale=scale, form=form, h=h, h_den=h_den, primes=primes, dens=dens,
            qh=tuple(sum(map(mul, row, h)) for row in form), images=images,
            gram=tuple(tuple(_scan(images, pack, u)) for u in primes), pack=pack,
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the cone axioms; returns all findings at once.

        Signs are read off the integer view; an exact value is built only
        for a violation message.
        """
        violations: list[str] = []
        warnings: list[str] = []
        r = self.rank
        sig = signature(self.form.cleared[0])
        if sig != (1, r - 1, 0):
            violations.append(
                f"form has signature {sig}, expected Lorentzian (1, {r - 1}, 0)"
            )
            return ValidationReport(tuple(violations), tuple(warnings))

        c = self.compiled
        qh = dot(c.qh, c.h)
        if qh <= 0:
            violations.append(
                "reference class must satisfy q(h, h) > 0, got "
                f"{describe(Fraction(qh, c.scale * c.h_den ** 2))}"
            )
        # qh · primes[i] = h · images[i]: the scan of h
        for p, vec, den, pairing in zip(self.primes, c.primes, c.dens, self._pairings(c.h)):
            if not any(vec):
                violations.append(f"prime '{p.name}' is the zero class")
                continue
            if pairing < 0:
                violations.append(
                    f"prime '{p.name}' pairs negatively with h: "
                    f"q = {describe(Fraction(pairing, c.scale * c.h_den * den))}"
                )
            elif pairing == 0:
                warnings.append(
                    f"prime '{p.name}' is orthogonal to h (boundary contact)"
                )
        for i, row in enumerate(c.gram):
            for j in range(i + 1, len(row)):
                if row[j] < 0:
                    a, b = self.primes[i].name, self.primes[j].name
                    violations.append(
                        f"distinct primes '{a}', '{b}' must pair nonnegatively: q = "
                        f"{describe(Fraction(row[j], c.scale * c.dens[i] * c.dens[j]))}"
                    )
        return ValidationReport(tuple(violations), tuple(warnings))

    @cached_property
    def report(self) -> ValidationReport:
        """The result of :meth:`validate`, computed once per model."""
        return self.validate()

    def require_valid(self) -> "ConeModel":
        """Raise :class:`InvalidModelError` on a failing (cached) report."""
        if self.report.violations:
            raise InvalidModelError(self.report.violations)
        return self

    # -- cone membership -------------------------------------------------
    #
    # Signs are read off the integer view: ``a = den * alpha`` is cleared
    # once, and every pairing below is an integer over a positive denominator.

    def _cleared(self, alpha: Sequence) -> tuple[tuple[int, ...], int]:
        alpha = as_vector(alpha)
        if len(alpha) != self.rank:
            raise DimensionMismatchError(
                f"class of length {len(alpha)} against a rank-{self.rank} model"
            )
        return clear_denominators(alpha)

    def _pairings(self, a: Sequence[int]) -> list[int]:
        """``a · images[i]`` for each prime: ``q(alpha, p_i)`` times a positive integer,
        for a class cleared to ``a``, by :func:`_scan`.  The one reader of
        ``compiled.images``."""
        c = self.compiled
        return _scan(c.images, c.pack, a)

    def _closure_pairings(self, a: Sequence[int]) -> tuple[int, int]:
        """``(a · qh, a · form · a)`` for ``a = den * alpha``: ``q(alpha, h)`` times
        ``scale * h_den * den`` and ``q(alpha, alpha)`` times ``scale * den**2``."""
        c = self.compiled
        return dot(a, c.qh), dot(a, [dot(row, a) for row in c.form])

    def in_positive_cone_closure(self, alpha: Sequence) -> bool:
        """Closure of the positive half-cone selected by h."""
        return min(self._closure_pairings(self._cleared(alpha)[0])) >= 0

    def is_dual_nef(self, alpha: Sequence) -> bool:
        """Positive-cone closure plus nonnegative pairing with every prime."""
        a = self._cleared(alpha)[0]
        return min(self._closure_pairings(a)) >= 0 and min(self._pairings(a), default=0) >= 0


def cone_model(
    form: Sequence[Sequence] | SymmetricForm,
    primes: Mapping[str, Iterable] | Iterable[tuple[str, Iterable]],
    h: Iterable,
    m: int = 1,
) -> ConeModel:
    """Convenience constructor coercing plain data to exact types."""
    if not isinstance(form, SymmetricForm):
        form = symmetric_form(form)
    items = primes.items() if isinstance(primes, Mapping) else primes
    prime_classes = tuple(PrimeClass(name, as_vector(vec)) for name, vec in items)
    return ConeModel(form=form, primes=prime_classes, h=as_vector(h), m=m)
