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
from itertools import chain
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
_Rows = tuple[tuple[int, ...], ...]


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
    ``scale * dens[i] * dens[j] * q(p_i, p_j)``.  With more primes than
    coordinates :func:`_pack` builds the images and ``pack``, else ``pack`` is ``None``.
    """

    scale: int
    form: _Rows
    h: tuple[int, ...]
    h_den: int
    primes: _Rows
    dens: tuple[int, ...]
    qh: tuple[int, ...]
    images: _Rows
    gram: _Rows
    pack: _Pack | None


def _fields(total: int, offset: int) -> list[int]:
    """The fields ``x_i`` of ``total = Σ_i x_i · 2**(64 i)``, each in ``[-2**63, 2**63)``:
    field ``i`` of ``total + offset`` is ``x_i + 2**63``, with no carry between fields,
    and the XOR takes ``2**63`` off it modulo ``2**64`` for ``memoryview.cast("q")``."""
    raw = ((total + offset) ^ offset).to_bytes(offset.bit_length() >> 3, sys.byteorder)
    return memoryview(raw).cast("q").tolist()


def _pack(form: _Rows, primes: _Rows, big: int) -> tuple[_Rows, _Pack | None]:
    """``(images, pack)`` for more primes than coordinates, ``big`` the largest
    ``|prime entry|``.  A column ``Σ_i x_i · 2**(64 i)`` holds ``x_i`` in its 64-bit field
    ``i``.  If ``big · max_k ‖form[k]‖₁ < 2**63`` bounds every image entry, the image
    columns are ``Σ_j form[k][j] · P_j`` over the packed prime columns ``P_j``; else each
    image entry is one ``dot``.  ``pack`` is ``(columns, offset, limit)`` for :func:`_scan`,
    or ``None`` once an image's norm ``‖images[i]‖₁`` reaches ``2**63``; ``offset`` sets
    bit 63 of every field, and a class with every entry in ``[-limit, limit]`` pairs with
    each image inside ``(-2**63, 2**63)``."""
    from array import array  # only a model that packs loads it

    offset = int.from_bytes(array("Q", [1 << 63]) * len(primes), sys.byteorder)

    def packed(column: Sequence[int]) -> int:  # array("q") holds each entry mod 2**64
        return (int.from_bytes(array("q", column), sys.byteorder) ^ offset) - offset

    columns = None
    if max(big, big * max(sum(map(abs, row)) for row in form)) >> 63:
        images = tuple(tuple(sum(map(mul, row, vec)) for row in form) for vec in primes)
    else:
        prime_columns = [packed(column) for column in zip(*primes)]
        columns = tuple(sum(map(mul, row, prime_columns)) for row in form)
        images = tuple(zip(*[_fields(column, offset) for column in columns]))
    norm = max(sum(map(abs, image)) for image in images)
    if norm >> 63:
        return images, None
    columns = columns or tuple(map(packed, zip(*images)))  # the dot route packs its images
    return images, (columns, offset, ((1 << 63) - 1) // max(norm, 1))


def _scan(images: Sequence[Sequence[int]], pack: _Pack | None, a: Sequence[int]) -> list[int]:
    """``[dot(a, image) for image in images]``, as one big-integer product when
    `pack` bounds every entry of ``a``: field ``i`` of ``Σ_k a_k columns[k]`` is
    ``a · images[i]``, inside ``(-2**63, 2**63)``, which :func:`_fields` reads."""
    if pack is not None:
        columns, offset, limit = pack
        if -limit <= min(a) and max(a) <= limit:
            return _fields(sum(map(mul, a, columns)), offset)
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
            violations.append(f"reference class has length {len(self.h)}, expected {r}")
        for p in self.primes:
            if len(p.vec) != r:
                violations.append(f"prime '{p.name}' has length {len(p.vec)}, expected {r}")
        if len(names := {p.name for p in self.primes}) < len(self.primes):  # one repeats
            counts = Counter(p.name for p in self.primes)
            violations += [f"duplicate prime name '{n}'" for n in sorted(names) if counts[n] > 1]
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
        r, n = self.rank, len(self.primes)
        flat, den = clear_denominators([x for p in self.primes for x in p.vec])
        cleared = ([(flat[i * r:(i + 1) * r], 1) for i in range(n)] if den == 1  # one matrix
                   else [clear_denominators(p.vec) for p in self.primes])
        primes, dens = tuple(vec for vec, _ in cleared), tuple(d for _, d in cleared)
        big = max(map(abs, chain.from_iterable(primes)), default=0)
        # packed only with more primes than coordinates: del Pezzo from r = 3, no grid model
        if n > r > 0:
            images, pack = _pack(form, primes, big)
        else:
            images = tuple(tuple(sum(map(mul, row, vec)) for row in form) for vec in primes)
            pack = None
        if pack and big <= pack[2]:  # every prime within the limit, checked once
            gram = tuple(tuple(_fields(sum(map(mul, u, pack[0])), pack[1])) for u in primes)
        else:
            gram = tuple(tuple(_scan(images, pack, u)) for u in primes)
        return CompiledModel(
            scale=scale, form=form, h=h, h_den=h_den, primes=primes, dens=dens, images=images,
            qh=tuple(sum(map(mul, row, h)) for row in form), gram=gram, pack=pack,
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
            violations.append(f"form has signature {sig}, expected Lorentzian (1, {r - 1}, 0)")
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
                warnings.append(f"prime '{p.name}' is orthogonal to h (boundary contact)")
        for i, row in enumerate(c.gram[:-1]):  # the last prime pairs with no later one
            if min(row[i + 1:]) < 0:  # only a row with a negative pair is walked
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
