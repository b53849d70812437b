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

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import ClassVar, Mapping, NamedTuple, Sequence

from .cone import ConeModel
from .exact import (
    SymmetricForm,
    Vector,
    as_vector,
    combine,
    describe,
    gram_matrix,
    inner,
    is_negative_definite,
    schur_complement,
    solve_cleared,
    solve_symmetric,
)

class NotPseudoEffectiveError(Exception):
    """The input class lies outside the modeled pseudo-effective cone."""

    __slots__ = ("reason", "detail")  # a retained refusal keeps no instance dict

    def __init__(self, reason: str, **detail):
        self.reason = reason
        self.detail = detail
        super().__init__(reason)

    def __str__(self) -> str:
        # on demand, so a detail past the int-to-str digit limit cannot break the raise
        extras = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return self.reason + (f" ({extras})" if extras else "")

    def __reduce__(self):
        # BaseException's own reduce carries only args and the (empty) instance dict
        return type(self), (self.reason,), {"detail": self.detail}


class InternalInconsistencyError(RuntimeError):
    """A certified invariant failed after a successful solve."""


class OracleUniquenessError(AssertionError):
    """Exhaustive search found zero or multiple decomposition candidates."""


class Certificate(NamedTuple):
    """Booleans recording which invariants were re-verified on the result."""

    orthogonality_checked: bool
    gram_negative_definite_checked: bool
    effectivity_checked: bool
    dual_nef_checked: bool

    @property
    def all_passed(self) -> bool:
        return all(self)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Result of a decomposition: ``alpha = positive_part + negative part``.

    A result exists only once all four invariants re-checked, so its
    certificate is the one all-passed value, held by the class.
    """

    alpha: Vector
    positive_part: Vector
    negative_coeffs: Mapping[str, Fraction]
    iterations: int
    certificate: ClassVar[Certificate] = Certificate(True, True, True, True)

    @property
    def support(self) -> tuple[str, ...]:
        """The primes with a positive coefficient, in ``negative_coeffs`` order."""
        return tuple(n for n, c in self.negative_coeffs.items() if c > 0)


def verify_certificate(model: ConeModel, alpha: Vector, positive_part: Vector,
                       negative_coeffs: Mapping[str, Fraction]) -> tuple[Certificate, list[str]]:
    """Re-check every certified invariant from raw data.

    Returns the certificate booleans together with a human-readable list of
    violations (empty when everything holds).  The reconstruction identity
    is checked as well even though it is not part of the certificate type.
    Both vectors are cleared by ``model._cleared`` (a wrong length raises first) for
    :func:`_certify`, which :func:`decompose` runs on the state its loop ends with.
    """
    (a, da), (z, dz) = map(model._cleared, (alpha, positive_part))
    return _certify(model, a, da, z, dz, model._pairings(z), model._closure_pairings(z),
                    negative_coeffs)


def _certify(model: ConeModel, a: Sequence[int], da: int, z: Sequence[int], dz: int,
             pairings: Sequence[int], closure: tuple[int, int],
             negative_coeffs: Mapping[str, Fraction]) -> tuple[Certificate, list[str]]:
    """The checks on cleared data: ``alpha = a / da``, the positive part ``z / dz``, its
    ``model._pairings(z)`` and ``model._closure_pairings(z)``.  Reconstruction is an
    integer identity, and every other check reads ``model.compiled``."""
    violations: list[str] = []
    position, c = model.prime_position, model.compiled
    for name in negative_coeffs:
        if name not in position:
            violations.append(f"unknown prime '{name}' in negative part")
    usable = {n: k for n, k in negative_coeffs.items() if n in position}

    terms = [(*k.as_integer_ratio(), position[n]) for n, k in usable.items()]
    den = lcm(da, dz, *(q * c.dens[i] for _, q, i in terms))
    total = combine(tuple(x * (den // da) for x in a),  # den * (alpha - negative part)
                    ((-p * (den // (q * c.dens[i])), c.primes[i]) for p, q, i in terms))
    if total != tuple(y * (den // dz) for y in z):
        violations.append("reconstruction failed: positive part plus negative part "
                          "does not equal the input class")

    orthogonal = True
    for name in usable:
        if pairing := pairings[i := position[name]]:
            orthogonal = False
            violations.append(f"orthogonality violated: q(positive_part, {name}) = "
                              f"{describe(Fraction(pairing, c.scale * dz * c.dens[i]))}")

    # the principal submatrix of scale * D G D: congruent to the support's Gram G
    support = [position[n] for n, k in usable.items() if k > 0]
    negdef = is_negative_definite([[c.gram[i][j] for j in support] for i in support])
    if not negdef:
        violations.append("support Gram matrix is not negative definite")

    effective = all(k >= 0 for k in negative_coeffs.values())
    if not effective:
        bad = {n: describe(k) for n, k in negative_coeffs.items() if k < 0}
        violations.append(f"negative part has negative coefficients: {bad}")

    dual_nef = min(closure) >= 0 and all(x >= 0 for x in pairings)
    if not dual_nef:
        violations.append("positive part is not dual-nef")

    return Certificate(orthogonal, negdef, effective, dual_nef), violations


def _project(
    form: SymmetricForm, alpha: Vector, vecs: list[Vector]
) -> tuple[Vector, Vector] | None:
    """``(coeffs, residual)`` with ``alpha = residual + sum(c * v)`` and the
    residual orthogonal to `vecs`; ``None`` if their Gram is not negative definite.
    The oracle's projection, all in Fractions: :func:`inner`, :func:`gram_matrix`
    and :func:`solve_symmetric` on the raw vectors."""
    rhs = [inner(form, alpha, v) for v in vecs]
    if (coeffs := solve_symmetric(gram_matrix(form, vecs), rhs)) is None:
        return None
    return coeffs, combine(alpha, ((-c, v) for c, v in zip(coeffs, vecs)))


def _project_primes(model: ConeModel, a: Sequence[int], b: Sequence[int], den: int,
                    active: list[int]) -> tuple[Sequence[int], int, Sequence[int], int] | None:
    """:func:`_project` of ``alpha = a / den`` off the primes at `active`, in integers:
    ``(y, det, z, d)`` with ``M_F y = det(M_F) b_F`` for ``M = compiled.gram`` and alpha's
    pairings ``b = model._pairings(a)``, coefficients ``c_i = dens[i] y_i / (det den)`` and
    the residual ``z / d = (det a - sum y_i compiled.primes[i]) / (det den)`` in lowest terms,
    ``d > 0``.  ``M_F = scale * D G D`` for the Fraction Gram ``G`` and the positive diagonal
    ``D`` of ``dens``, so it is negative definite iff ``G`` is."""
    if len(active) >= model.rank:  # not negative definite in signature (1, r - 1)
        return None
    c = model.compiled
    if (solved := solve_cleared([[c.gram[i][j] for j in active] for i in active],
                                [b[i] for i in active])) is None:
        return None
    y, det = solved
    z = combine(tuple(det * x for x in a), ((-yi, c.primes[i]) for yi, i in zip(y, active)))
    g = gcd(*z, det * den) * (1 if det > 0 else -1)  # det alternates in sign with |F|
    return y, det, tuple(x // g for x in z), det * den // g


def _active_set(
    model: ConeModel, alpha: Vector
) -> tuple[Vector, dict[str, Fraction], int] | NotPseudoEffectiveError:
    """The active-set loop of :func:`decompose`.

    Returns ``(positive_part, negative_coeffs, rounds)``, or the refusal as a value:
    :func:`decompose` raises it, so its traceback pins none of this frame's working
    state.  The residual is exactly orthogonal to every active prime, so only inactive
    primes can pair negatively, and the active set grows every round: an active violator
    or a round past the prime count raises :class:`InternalInconsistencyError`.  Alpha
    is cleared once, and its pairings are the first scan and every round's right-hand side.
    Each residual comes cleared from :func:`_project_primes` and is scanned once; the last
    one's scan and closure pairings feed :func:`_certify` against alpha's own clearing (a
    violation raises), and Fractions are built only at the exit.
    """
    primes, c = model.primes, model.compiled
    a, den = model._cleared(alpha)
    b = pairings = model._pairings(a)
    active, y, det, rounds, z, d = [], (), 1, 0, a, den
    while violating := [i for i, x in enumerate(pairings) if x < 0]:
        rounds += 1
        if stuck := [primes[i].name for i in violating if i in active]:
            raise InternalInconsistencyError(
                f"round {rounds}: the residual pairs negatively with active primes {stuck}"
            )
        if rounds > len(primes):
            raise InternalInconsistencyError(f"round {rounds}: more rounds than primes")
        active = sorted({*active, *violating})
        if (projected := _project_primes(model, a, b, den, active)) is None:
            return NotPseudoEffectiveError(
                "gram-not-negative-definite",
                subset=tuple(primes[i].name for i in active),
            )
        y, det, z, d = projected
        pairings = model._pairings(z)

    qh, qq = closure = model._closure_pairings(z)
    if qh < 0 or qq < 0:  # over the denominators of the residual z / d
        return NotPseudoEffectiveError(
            "positive-cone-closure",
            q_self=Fraction(qq, c.scale * d * d),
            q_h=Fraction(qh, c.scale * c.h_den * d),
        )
    negative = {primes[i].name: Fraction(c.dens[i] * yi, det * den) for i, yi in zip(active, y)}
    if violations := _certify(model, a, den, z, d, pairings, closure, negative)[1]:
        raise InternalInconsistencyError("post-solve certificate verification failed: "
                                         + "; ".join(violations))
    return tuple(Fraction(x, d) for x in z) if rounds else alpha, negative, max(rounds, 1)


def decompose(model: ConeModel, alpha: Sequence) -> Decomposition:
    """Active-set orthogonal projection onto the dual-nef cone.

    Each round projects ``alpha`` orthogonally off the span of the active primes,
    collects every remaining prime the residual pairs negatively with, and enlarges
    the active set by all of them at once.  The run fails with
    :class:`NotPseudoEffectiveError` as soon as the active Gram matrix stops being
    negative definite, or when the final residual falls outside the closed positive
    cone.  On success all four certificate invariants are re-verified by :func:`_certify`
    against the raw ``alpha``, on the final residual's own clearing and pairings.
    A model that breaks the cone axioms raises :class:`InvalidModelError` (the
    validation report is cached on the model, so this costs one read after the
    first call).  Every sign, solve and residual of the loop is in integers on
    ``model.compiled``.
    """
    model.require_valid()
    alpha = as_vector(alpha)
    solved = _active_set(model, alpha)
    if isinstance(solved, NotPseudoEffectiveError):
        raise solved
    return Decomposition(alpha, *solved)  # positive part, negative coefficients, rounds


def _volume(model: ConeModel, positive_part: Vector) -> Fraction:
    """``q(Z, Z)**m`` for a positive part ``Z``, refused before the power.

    A power whose numerator or denominator is at least ``2**k`` with
    ``3*k >= 10*limit`` has more than ``limit`` decimal digits, for the
    interpreter's int-to-str limit; such a power raises :class:`OverflowError`
    at once instead of being computed.
    """
    z, d = model._cleared(positive_part)  # q(Z, Z) is z·(sQ)·z over scale·d²
    qzz, m = Fraction(model._closure_pairings(z)[1], model.compiled.scale * d * d), model.m
    limit = sys.get_int_max_str_digits()
    for part in (qzz.numerator, qzz.denominator):
        if limit and 3 * (part.bit_length() - 1) * m >= 10 * limit:
            raise OverflowError(
                "number too large to print: "
                f"q(Z,Z)**m with m = {m} has more than {limit} digits"
            )
    return qzz**m


def volume(model: ConeModel, alpha: Sequence) -> Fraction:
    """``q(Z, Z)**m`` for the positive part ``Z`` of `alpha`.

    Raises :class:`OverflowError` when the power has more decimal digits
    than the interpreter's int-to-str limit.
    """
    return _volume(model, decompose(model, alpha).positive_part)


def family_cap(model: ConeModel, max_size: int | None) -> int:
    """The largest family size a walk lists: `max_size` clamped to ``[0, rank]``."""
    return model.rank if max_size is None else max(0, min(max_size, model.rank))


def enumerate_exceptional_families(
    model: ConeModel, max_size: int | None = None
) -> list[tuple[str, ...]]:
    """All exceptional families up to `max_size`, in lexicographic order.

    The walk negates the integer prime Gram ``model.compiled.gram``, giving
    ``M = -s * D G D`` for the rational prime Gram ``G``, a positive integer
    ``s`` and the positive diagonal ``D`` of prime denominators.  A
    congruence by a positive diagonal matrix keeps the sign of every
    principal minor, so ``M`` is positive definite on exactly the
    exceptional families and the lists are those of ``G``.  A depth-first walk
    extends a family one prime at a time and carries the fraction-free
    (Bareiss) Schur complement of the primes that may still extend it: entry
    ``S[a][b]`` is the bordered minor ``det M[F + a, F + b]``, and ``prev`` is
    ``det M[F]``.  By Sylvester's identity, prime ``u`` may follow prime ``t``
    iff ``(S[t][t] * S[u][u] - S[t][u]**2) / prev = det M[F + t + u] > 0``.
    That sign test runs before any division; its numerators are the next
    complement's diagonal times ``prev``, so the next complement is one
    :func:`~zariski.exact.schur_complement` at ``t`` over the primes that
    pass it, handed those numerators.  A prime that fails is dropped for the
    whole subtree, because definiteness is inherited by principal
    submatrices.  Sizes are capped at the lattice rank; larger families
    cannot be negative definite.

    Only complements that a later test reads are built.  The last candidate
    has nothing after it to test.  When one prime passes, or the grown family
    is one short of the cap, each passing prime closes a family with no
    subtree, so those families are listed directly, with no complement.
    """
    cap = family_cap(model, max_size)
    names = model.prime_names()
    m = [[-x for x in row] for row in model.compiled.gram]
    out: list[tuple[str, ...]] = [()]

    def walk(family: tuple[str, ...], cands: list[int], schur: list[list[int]],
             prev: int) -> None:
        last = len(cands) - 1
        for t, j in enumerate(cands):
            grown = family + (names[j],)
            out.append(grown)
            if t == last or len(grown) >= cap:
                continue
            row, pivot = schur[t], schur[t][t]
            # prev = det M[family] is 1 or a kept pivot, so positive, and the
            # numerator has the sign of the minor
            keep, diag = [], []
            for u in range(t + 1, last + 1):
                d = pivot * schur[u][u] - row[u] * row[u]
                if d > 0:
                    keep.append(u)
                    diag.append(d)
            if len(keep) == 1 or len(grown) + 1 == cap:
                out.extend(grown + (names[cands[u]],) for u in keep)
            elif keep:
                walk(grown, [cands[u] for u in keep],
                     schur_complement(schur, t, keep, prev, diag), pivot)

    if cap:
        top = [i for i in range(len(names)) if m[i][i] > 0]
        walk((), top, [[m[a][b] for b in top] for a in top], 1)
    return out


def brute_force_decompose(model: ConeModel, alpha: Sequence) -> Decomposition:
    """Oracle: family search over every exceptional family (test-only).

    Projects `alpha` off the span of each family that
    :func:`enumerate_exceptional_families` lists, by the Fraction :func:`_project`
    that the engine's loop does not run, and keeps candidates with nonnegative
    coefficients and a dual-nef remainder; the cost is the family count, so it
    reaches del Pezzo r = 6 (27 primes).  A family that the projection's pivot
    test refuses raises :class:`InternalInconsistencyError`.  Exactly one
    candidate must survive (after identifying candidates that differ only by
    zero-coefficient primes); anything else raises :class:`OracleUniquenessError`.
    A model that breaks the cone axioms raises :class:`InvalidModelError`.
    """
    model.require_valid()
    alpha = as_vector(alpha)
    vec_of = model.prime_vec
    survivors: dict[tuple, tuple[Vector, dict[str, Fraction]]] = {}
    for family in enumerate_exceptional_families(model):
        projected = _project(model.form, alpha, [vec_of[n] for n in family])
        if projected is None:
            raise InternalInconsistencyError(
                f"enumerated family {family} is not negative definite"
            )
        coeffs, residual = projected
        if any(c < 0 for c in coeffs) or not model.is_dual_nef(residual):
            continue
        positive = tuple((n, c) for n, c in zip(family, coeffs) if c > 0)
        survivors[(residual, positive)] = (residual, dict(positive))
    if not survivors:
        raise NotPseudoEffectiveError("exhaustive-no-candidate")
    if len(survivors) > 1:
        raise OracleUniquenessError(
            f"{len(survivors)} distinct decompositions survived exhaustive "
            f"search for {alpha}"
        )
    (residual, coeff_map), = survivors.values()
    _, violations = verify_certificate(model, alpha, residual, coeff_map)
    if violations:
        raise OracleUniquenessError(
            "exhaustive candidate failed verification: " + "; ".join(violations)
        )
    return Decomposition(
        alpha=alpha,
        positive_part=residual,
        negative_coeffs=coeff_map,
        iterations=0,
    )
