"""Deterministic random Lorentzian models and pseudo-effective classes.

Models are produced by conjugating the standard form ``diag(1, -1, ..., -1)``
with a random unimodular integer matrix, so every generated model is exactly
Lorentzian and carries a distinguished class of self-pairing one.  Prime
classes are rejection-sampled in diagonal coordinates where the acceptance
conditions are cheap to state.  Everything is driven by a single seed, so a
spec reproduces its model bit-for-bit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .cone import ConeModel, cone_model
from .exact import Vector, as_vector, combine, zero_vector
from .serialize import FormatError


class GenerationExhaustedError(RuntimeError):
    """Rejection sampling ran out of attempts; the spec is too tight."""


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters of one generated model."""

    rank: int
    prime_count: int
    seed: int
    coefficient_bound: int = 4

    def __post_init__(self):
        if not 2 <= self.rank <= 6:
            raise ValueError(f"rank must be between 2 and 6, got {self.rank}")
        if not 0 <= self.prime_count <= 6:
            raise ValueError(
                f"prime_count must be between 0 and 6, got {self.prime_count}"
            )
        if self.coefficient_bound < 1:
            raise ValueError(
                f"coefficient_bound must be positive, got {self.coefficient_bound}"
            )


def spec_grid(count: int, seed: int = 1000, max_rank: int = 6) -> list[FixtureSpec]:
    """Deterministic spec grid: ranks cycling 2..max_rank, every feasible
    prime count, consecutive seeds from `seed`, coefficient bounds 3 and 4."""
    specs = []
    for i in range(count):
        rank = 2 + i % (max_rank - 1)
        cap = 2 if rank == 2 else rank
        specs.append(FixtureSpec(rank=rank, prime_count=i % (cap + 1),
                                 seed=seed + i, coefficient_bound=3 + i % 2))
    return specs


def parse_spec_literal(text: str) -> FixtureSpec:
    """Parse ``"rank,primes,seed[,bound]"`` into a FixtureSpec."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise FormatError(
            f"fixture spec needs rank,primes,seed[,bound], got {text!r}"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"fixture spec entries must be integers: {text!r}") from exc
    try:
        return FixtureSpec(*numbers)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# exact integer matrix helpers
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _random_unimodular(
    rng: random.Random, n: int, bound: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Random integer matrix of determinant +-1 with entries within `bound`,
    and its inverse: each row operation on ``u`` is undone on the columns of
    the inverse, so ``u * inverse == I`` throughout."""
    u, inv = _identity(n), _identity(n)
    for _ in range(4 * n * n + 8):
        op = rng.randrange(4)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            sign = rng.choice((1, -1))
            candidate = [u[i][k] + sign * u[j][k] for k in range(n)]
            if max(abs(x) for x in candidate) <= bound:
                u[i] = candidate
                for row in inv:
                    row[j] -= sign * row[i]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif op == 2:
            u[i] = [-x for x in u[i]]
            for row in inv:
                row[i] = -row[i]
    return u, inv


def _diag_pair(w: list[int], w2: list[int]) -> int:
    """Pairing in diagonal coordinates: first entry positive, rest negative."""
    return w[0] * w2[0] - sum(a * b for a, b in zip(w[1:], w2[1:]))


def _apply(matrix: list[list[int]], w: list[int]) -> Vector:
    return as_vector(
        sum(matrix[i][j] * w[j] for j in range(len(w))) for i in range(len(matrix))
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def gen_model(spec: FixtureSpec) -> ConeModel:
    """Generate a valid Lorentzian model from the spec, deterministically.

    Raises :class:`GenerationExhaustedError` when rejection sampling cannot
    place the requested number of pairwise-compatible primes within its
    attempt budget (some spec corners, e.g. many primes at low rank, admit
    no solution at all).
    """
    rng = random.Random(spec.seed)
    n, bound = spec.rank, spec.coefficient_bound
    u, v = _random_unimodular(rng, n, bound)

    # form in model coordinates: Q = U^T diag(1, -1, ..., -1) U
    signs = [1] + [-1] * (n - 1)
    q_rows = [
        [
            sum(signs[k] * u[k][i] * u[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    h = as_vector(v[i][0] for i in range(n))

    accepted: list[list[int]] = []
    budget = 5000 + 4000 * spec.prime_count
    attempts = 0
    while len(accepted) < spec.prime_count:
        attempts += 1
        if attempts > budget:
            raise GenerationExhaustedError(
                f"could not place prime {len(accepted) + 1} of "
                f"{spec.prime_count} after {budget} attempts; spec too tight: {spec}"
            )
        w = [rng.randint(-bound, bound) for _ in range(n)]
        if all(x == 0 for x in w):
            continue
        if w[0] < 0:
            continue
        if _diag_pair(w, w) >= 0:
            continue
        if any(_diag_pair(w, prev) < 0 for prev in accepted):
            continue
        accepted.append(w)

    primes = [(f"p{k + 1}", _apply(v, w)) for k, w in enumerate(accepted)]
    model = cone_model(q_rows, primes, h, m=1)
    report = model.validate()
    assert report.ok, f"generated model failed validation: {report.violations}"
    return model


def _is_square(f: Fraction) -> bool:
    if f < 0:
        return False
    return isqrt(f.numerator) ** 2 == f.numerator and isqrt(f.denominator) ** 2 == f.denominator


def _sqrt_exact(f: Fraction) -> Fraction:
    return Fraction(isqrt(f.numerator), isqrt(f.denominator))


def _primitive(vec: Vector) -> Vector:
    """Scale a rational vector to primitive integer form (positive scale)."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return vec
    return as_vector(x // g for x in ints)


def _boundary_classes(
    model: ConeModel, rng: random.Random, want: int, attempts: int = 80
) -> list[Vector]:
    """Rational isotropic classes on the positive-cone boundary.

    Searches small integer vectors ``v`` of negative self-pairing whose
    two-plane with ``h`` meets the light cone rationally, i.e. the
    discriminant ``q(h, v)^2 - q(h, h) q(v, v)`` is a perfect square; the
    root with nonnegative pairing against ``h`` is returned.
    """
    found: list[Vector] = []
    qh = model.q(model.h, model.h)
    for _ in range(attempts):
        if len(found) >= want:
            break
        v = as_vector(rng.randint(-3, 3) for _ in range(model.rank))
        qv = model.q(v, v)
        if qv >= 0:
            continue
        qhv = model.q(model.h, v)
        disc = qhv * qhv - qh * qv
        if not _is_square(disc):
            continue
        a = (-qhv + _sqrt_exact(disc)) / qh
        boundary = _primitive(combine(v, [(a, model.h)]))
        if all(x == 0 for x in boundary):
            continue
        found.append(boundary)
    return found


def gen_pseudoeffective_class(model: ConeModel, seed: int) -> Vector:
    """Random class in the modeled pseudo-effective cone (decomposable).

    Draws a nonnegative rational combination of the reference class, up to
    two rational boundary classes of the positive cone, and the model's
    primes; zero coefficients are common by design so degenerate corners
    (pure prime sums, boundary classes, the zero class) occur naturally.
    """
    rng = random.Random(seed)
    parts: list[Vector] = [model.h]
    parts.extend(_boundary_classes(model, rng, want=2))
    parts.extend(p.vec for p in model.primes)
    coeffs = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in parts]
    return combine(zero_vector(model.rank), zip(coeffs, parts))
