"""Divisorial Zariski decomposition on a Lorentzian cone model.

The central operation splits a pseudo-effective class ``alpha`` into a
dual-nef positive part and an exceptional negative part supported on
finitely many prime classes,

    ``alpha = positive_part + sum(coeff[D] * D for D in active set)``,

with the positive part orthogonal to every active prime and the Gram
matrix of the support negative definite.  The splitting is computed by an
active-set orthogonal projection: primes that pair negatively with the
current residual join the active set, the residual is re-projected onto
the orthogonal complement of the active span, and the loop repeats until
no prime objects.  Uniqueness of the result makes the final answer
independent of the order in which primes are listed.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .cone import ConeModel
from .exact import (
    DimensionMismatchError,
    Vector,
    as_vector,
    combine,
    gram_matrix,
    inner,
    is_negative_definite,
    solve_symmetric,
    zero_vector,
)

BRUTE_FORCE_PRIME_LIMIT = 16


class NotPseudoEffectiveError(Exception):
    """The input class lies outside the modeled pseudo-effective cone."""

    def __init__(self, reason: str, **detail):
        self.reason = reason
        self.detail = detail
        extras = ", ".join(f"{k}={v}" for k, v in detail.items())
        super().__init__(f"{reason}" + (f" ({extras})" if extras else ""))


class InternalInconsistencyError(RuntimeError):
    """A certified invariant failed after a successful solve."""


class OracleUniquenessError(AssertionError):
    """Exhaustive search found zero or multiple decomposition candidates."""


class UnknownPrimeError(KeyError):
    """A prime name does not occur in the model."""


@dataclass(frozen=True)
class Certificate:
    """Booleans recording which invariants were re-verified on the result."""

    orthogonality_checked: bool
    gram_negative_definite_checked: bool
    effectivity_checked: bool
    dual_nef_checked: bool

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Decomposition:
    """Result of a decomposition: ``alpha = positive_part + negative part``."""

    alpha: Vector
    positive_part: Vector
    negative_coeffs: Mapping[str, Fraction]
    support: tuple[str, ...]
    iterations: int
    certificate: Certificate

    def negative_vector(self, model: ConeModel) -> Vector:
        return combine(
            zero_vector(len(self.alpha)),
            ((c, model.prime_vec[n]) for n, c in self.negative_coeffs.items()),
        )


def verify_certificate(
    model: ConeModel,
    alpha: Vector,
    positive_part: Vector,
    negative_coeffs: Mapping[str, Fraction],
) -> tuple[Certificate, list[str]]:
    """Re-check every certified invariant from raw data.

    Returns the certificate booleans together with a human-readable list of
    violations (empty when everything holds).  The reconstruction identity
    is checked as well even though it is not part of the certificate type.
    """
    violations: list[str] = []
    vec_of = model.prime_vec
    for name in negative_coeffs:
        if name not in vec_of:
            violations.append(f"unknown prime '{name}' in negative part")
    usable = {n: c for n, c in negative_coeffs.items() if n in vec_of}

    reconstructed = combine(positive_part, ((c, vec_of[n]) for n, c in usable.items()))
    if reconstructed != alpha:
        violations.append(
            "reconstruction failed: positive part plus negative part "
            "does not equal the input class"
        )

    orthogonal = True
    for name in usable:
        pairing = model.q(positive_part, vec_of[name])
        if pairing != 0:
            orthogonal = False
            violations.append(
                f"orthogonality violated: q(positive_part, {name}) = {pairing}"
            )

    support_vecs = [vec_of[n] for n, c in usable.items() if c > 0]
    negdef = is_negative_definite(gram_matrix(model.form, support_vecs))
    if not negdef:
        violations.append("support Gram matrix is not negative definite")

    effective = all(c >= 0 for c in negative_coeffs.values())
    if not effective:
        bad = {n: str(c) for n, c in negative_coeffs.items() if c < 0}
        violations.append(f"negative part has negative coefficients: {bad}")

    dual_nef = model.is_dual_nef(positive_part)
    if not dual_nef:
        violations.append("positive part is not dual-nef")

    return Certificate(orthogonal, negdef, effective, dual_nef), violations


def decompose(model: ConeModel, alpha: Sequence) -> Decomposition:
    """Active-set orthogonal projection onto the dual-nef cone.

    Each round projects ``alpha`` orthogonally off the span of the active
    primes, collects every remaining prime the residual pairs negatively
    with, and enlarges the active set by all of them at once.  The run
    fails with :class:`NotPseudoEffectiveError` as soon as the active Gram
    matrix stops being negative definite, or when the final residual falls
    outside the closed positive cone.  On success all four certificate
    invariants are re-verified from scratch.
    """
    alpha = as_vector(alpha)
    form = model.form
    primes = model.primes
    if len(alpha) != model.rank:
        raise DimensionMismatchError(
            f"class of length {len(alpha)} against a rank-{model.rank} model"
        )

    active: list[int] = []
    coeffs: Vector = ()
    current = alpha
    rounds = 0
    while True:
        in_active = set(active)
        violating = [
            i
            for i in range(len(primes))
            if i not in in_active and inner(form, current, primes[i].vec) < 0
        ]
        if not violating:
            break
        rounds += 1
        active = sorted(in_active | set(violating))
        vecs = [primes[i].vec for i in active]
        gram = gram_matrix(form, vecs)
        if not is_negative_definite(gram):
            raise NotPseudoEffectiveError(
                "gram-not-negative-definite",
                subset=tuple(primes[i].name for i in active),
            )
        rhs = [inner(form, alpha, v) for v in vecs]
        coeffs = solve_symmetric(gram, rhs)
        current = combine(alpha, ((-c, v) for c, v in zip(coeffs, vecs)))

    if not model.in_positive_cone_closure(current):
        raise NotPseudoEffectiveError(
            "positive-cone-closure",
            q_self=inner(form, current, current),
            q_h=inner(form, current, model.h),
        )
    if any(c < 0 for c in coeffs):
        raise InternalInconsistencyError(
            f"projection produced negative coefficients {coeffs} despite a "
            "negative definite active Gram matrix"
        )

    negative = {primes[i].name: coeffs[k] for k, i in enumerate(active)}
    support = tuple(primes[i].name for k, i in enumerate(active) if coeffs[k] > 0)
    cert, violations = verify_certificate(model, alpha, current, negative)
    if violations:
        raise InternalInconsistencyError(
            "post-solve certificate verification failed: " + "; ".join(violations)
        )
    return Decomposition(
        alpha=alpha,
        positive_part=current,
        negative_coeffs=negative,
        support=support,
        iterations=max(rounds, 1),
        certificate=cert,
    )


def zariski_projection(model: ConeModel, alpha: Sequence) -> Vector:
    """The dual-nef positive part of `alpha`."""
    return decompose(model, alpha).positive_part


def negative_part(model: ConeModel, alpha: Sequence) -> dict[str, Fraction]:
    """Coefficients of the exceptional negative part of `alpha`."""
    return dict(decompose(model, alpha).negative_coeffs)


def chamber_of(model: ConeModel, alpha: Sequence) -> tuple[str, ...]:
    """Support of the negative part, in model order; labels the chamber."""
    return decompose(model, alpha).support


def volume(model: ConeModel, alpha: Sequence) -> Fraction:
    """``q(Z, Z)**m`` for the positive part ``Z`` of `alpha`."""
    p = zariski_projection(model, alpha)
    return inner(model.form, p, p) ** model.m


def is_big(model: ConeModel, alpha: Sequence) -> bool:
    """Whether the positive part lies in the open positive cone."""
    p = zariski_projection(model, alpha)
    return inner(model.form, p, p) > 0 and inner(model.form, p, model.h) > 0


def is_exceptional_family(model: ConeModel, names: Sequence[str]) -> bool:
    """Whether the named primes have a negative definite Gram matrix."""
    vec_of = model.prime_vec
    vecs = []
    for name in names:
        if name not in vec_of:
            raise UnknownPrimeError(name)
        vecs.append(vec_of[name])
    return is_negative_definite(gram_matrix(model.form, vecs))


def enumerate_exceptional_families(
    model: ConeModel, max_size: int | None = None
) -> list[tuple[str, ...]]:
    """All exceptional families up to `max_size`, in lexicographic order.

    The search extends a family one prime at a time and prunes as soon as a
    Gram matrix stops being negative definite, which is complete because
    definiteness is inherited by principal submatrices.  Sizes are capped
    at the lattice rank; larger families cannot be negative definite.
    """
    cap = model.rank if max_size is None else max(0, min(max_size, model.rank))
    primes = model.primes
    out: list[tuple[str, ...]] = [()]

    def extend(start: int, idx: list[int]) -> None:
        if len(idx) >= cap:
            return
        for j in range(start, len(primes)):
            cand = idx + [j]
            vecs = [primes[i].vec for i in cand]
            if is_negative_definite(gram_matrix(model.form, vecs)):
                out.append(tuple(primes[i].name for i in cand))
                extend(j + 1, cand)

    extend(0, [])
    return out


def brute_force_decompose(model: ConeModel, alpha: Sequence) -> Decomposition:
    """Oracle: exhaustive search over all candidate supports (test-only).

    Tries every subset of primes whose Gram matrix is negative definite,
    solves the orthogonality system, and keeps candidates with nonnegative
    coefficients and a dual-nef remainder.  Exactly one candidate must
    survive (after identifying candidates that differ only by
    zero-coefficient primes); anything else raises
    :class:`OracleUniquenessError`.
    """
    alpha = as_vector(alpha)
    primes = model.primes
    n = len(primes)
    if n > BRUTE_FORCE_PRIME_LIMIT:
        raise ValueError(
            f"exhaustive search is limited to {BRUTE_FORCE_PRIME_LIMIT} primes, "
            f"model has {n}"
        )
    form = model.form
    survivors: dict[tuple, tuple[Vector, dict[str, Fraction]]] = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            vecs = [primes[i].vec for i in subset]
            gram = gram_matrix(form, vecs)
            if not is_negative_definite(gram):
                continue
            rhs = [inner(form, alpha, v) for v in vecs]
            coeffs = solve_symmetric(gram, rhs) if subset else ()
            if any(c < 0 for c in coeffs):
                continue
            residual = combine(alpha, ((-c, v) for c, v in zip(coeffs, vecs)))
            if not model.is_dual_nef(residual):
                continue
            positive = tuple(
                (primes[i].name, c) for i, c in zip(subset, coeffs) if c > 0
            )
            key = (residual, positive)
            survivors[key] = (residual, dict(positive))
    if not survivors:
        raise NotPseudoEffectiveError("exhaustive-no-candidate")
    if len(survivors) > 1:
        raise OracleUniquenessError(
            f"{len(survivors)} distinct decompositions survived exhaustive "
            f"search for {alpha}"
        )
    (residual, coeff_map), = survivors.values()
    cert, violations = verify_certificate(model, alpha, residual, coeff_map)
    if violations:
        raise OracleUniquenessError(
            "exhaustive candidate failed verification: " + "; ".join(violations)
        )
    return Decomposition(
        alpha=alpha,
        positive_part=residual,
        negative_coeffs=coeff_map,
        support=tuple(coeff_map),
        iterations=0,
        certificate=cert,
    )
