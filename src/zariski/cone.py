"""Lorentzian lattice models: a form, a reference class, and prime classes.

A model packages an exact symmetric bilinear form of signature
``(1, rank-1)``, a reference class ``h`` of positive self-pairing that
selects the positive half-cone, and a finite list of named prime classes
against which decompositions are computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact import (
    SymmetricForm,
    Vector,
    as_vector,
    inner,
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


@dataclass(frozen=True)
class ConeModel:
    """Immutable Lorentzian model; shape-checked on construction, then fixed."""

    form: SymmetricForm
    primes: tuple[PrimeClass, ...]
    h: Vector
    m: int = 1

    def __post_init__(self):
        r = self.rank
        violations: list[str] = []
        if not isinstance(self.m, int) or self.m < 1:
            violations.append(f"exponent m must be a positive integer, got {self.m}")
        if len(self.h) != r:
            violations.append(
                f"reference class has length {len(self.h)}, expected {r}"
            )
        for p in self.primes:
            if len(p.vec) != r:
                violations.append(
                    f"prime '{p.name}' has length {len(p.vec)}, expected {r}"
                )
        names = [p.name for p in self.primes]
        for name in sorted({n for n in names if names.count(n) > 1}):
            violations.append(f"duplicate prime name '{name}'")
        if violations:
            raise InvalidModelError(violations)

    @property
    def rank(self) -> int:
        return self.form.rank

    def q(self, u: Sequence, v: Sequence) -> Fraction:
        return inner(self.form, u, v)

    @cached_property
    def prime_vec(self) -> dict[str, Vector]:
        """Prime class vectors by name."""
        return {p.name: p.vec for p in self.primes}

    def prime_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.primes)

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the cone axioms; returns all findings at once."""
        violations: list[str] = []
        warnings: list[str] = []
        r = self.rank
        sig = signature(self.form)
        if sig != (1, r - 1, 0):
            violations.append(
                f"form has signature {sig}, expected Lorentzian (1, {r - 1}, 0)"
            )
            return ValidationReport(tuple(violations), tuple(warnings))

        qh = self.q(self.h, self.h)
        if qh <= 0:
            violations.append(
                f"reference class must satisfy q(h, h) > 0, got {qh}"
            )
        for p in self.primes:
            if all(x == 0 for x in p.vec):
                violations.append(f"prime '{p.name}' is the zero class")
                continue
            pairing = self.q(self.h, p.vec)
            if pairing < 0:
                violations.append(
                    f"prime '{p.name}' pairs negatively with h: q = {pairing}"
                )
            elif pairing == 0:
                warnings.append(
                    f"prime '{p.name}' is orthogonal to h (boundary contact)"
                )
        for i in range(len(self.primes)):
            for j in range(i + 1, len(self.primes)):
                a, b = self.primes[i], self.primes[j]
                pairing = self.q(a.vec, b.vec)
                if pairing < 0:
                    violations.append(
                        f"distinct primes '{a.name}', '{b.name}' must pair "
                        f"nonnegatively: q = {pairing}"
                    )
        return ValidationReport(tuple(violations), tuple(warnings))

    def require_valid(self) -> "ConeModel":
        report = self.validate()
        if not report.ok:
            raise InvalidModelError(report.violations)
        return self

    # -- cone membership -------------------------------------------------

    def in_positive_cone_closure(self, alpha: Sequence) -> bool:
        """Closure of the positive half-cone selected by h."""
        alpha = as_vector(alpha)
        return self.q(alpha, alpha) >= 0 and self.q(alpha, self.h) >= 0

    def is_dual_nef(self, alpha: Sequence) -> bool:
        """Positive-cone closure plus nonnegative pairing with every prime."""
        alpha = as_vector(alpha)
        if not self.in_positive_cone_closure(alpha):
            return False
        return all(self.q(alpha, p.vec) >= 0 for p in self.primes)


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
    return ConeModel(form=form, primes=prime_classes, h=as_vector(h), m=int(m))
