"""Deterministic random Lorentzian models and pseudo-effective classes.

Models are produced by conjugating the standard form ``diag(1, -1, ..., -1)``
with a random unimodular integer matrix, so every generated model is exactly
Lorentzian and carries a distinguished class of self-pairing one.  Prime
classes are rejection-sampled in diagonal coordinates where the acceptance
conditions are cheap to state.  Everything is driven by a single seed, so a
spec reproduces its model bit-for-bit.  ``del_pezzo`` builds the del Pezzo
lattices, whose exceptional-family counts are known answers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .cone import ConeModel, cone_model
from .exact import Vector, as_vector, clear_denominators, combine, dot, zero_vector
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
    report = model.report
    assert report.ok, f"generated model failed validation: {report.violations}"
    return model


def _primitive(vec: Vector) -> Vector:
    """Scale a rational vector to primitive integer form (positive scale)."""
    ints, _ = clear_denominators(vec)
    g = gcd(*ints)
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
    root with nonnegative pairing against ``h`` is returned.  Pairings are
    integer dot products on ``model.compiled``: with ``A = s*Q`` and
    ``H = e*h`` integral, the discriminant is ``(H·A·v)^2 - (H·A·H)(v·A·v)``
    over the square ``(s*e)^2``, so it is a rational square iff that integer
    is a perfect square.
    """
    c = model.compiled
    hah = dot(c.qh, c.h)
    found: list[Vector] = []
    for _ in range(attempts):
        if len(found) >= want:
            break
        v = [rng.randint(-3, 3) for _ in range(model.rank)]
        vav = dot(v, [dot(row, v) for row in c.form])
        if vav >= 0:
            continue
        hav = dot(c.qh, v)
        disc = hav * hav - hah * vav
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        # (-q(h, v) + sqrt(disc)) / q(h, h) in the integer view
        a = Fraction(c.h_den * (root - hav), hah)
        boundary = _primitive(combine(as_vector(v), [(a, model.h)]))
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


# ---------------------------------------------------------------------------
# del Pezzo lattices
# ---------------------------------------------------------------------------


def _multiplicities(count: int, total: int, squares: int):
    """Integer tuples ``m >= -1`` of length `count` with ``sum(m) == total``
    and ``sum(m*m) == squares``, in increasing order."""
    if count == 0:
        if total == 0 and squares == 0:
            yield ()
        return
    if squares < 0 or total * total > count * squares:  # Cauchy-Schwarz
        return
    for m in range(-1, isqrt(squares) + 1):
        for rest in _multiplicities(count - 1, total - m, squares - m * m):
            yield (m, *rest)


def del_pezzo(r: int) -> ConeModel:
    """The blow-up of P^2 in r general points, 1 <= r <= 8.

    The lattice is ``I_{1,r} = diag(1, -1, ..., -1)``, the reference class is
    ``-K = (3, -1, ..., -1)``, and the primes ``e1, e2, ...`` are the
    (-1)-classes in sorted order: the vectors ``(d, -m_1, ..., -m_r)`` with
    ``d^2 - sum(m_i^2) = -1`` and ``3d - sum(m_i) = 1``.  There are 1, 3, 6,
    10, 16, 27, 56 and 240 of them.
    """
    if not 1 <= r <= 8:
        raise ValueError(f"del Pezzo surfaces need 1 <= r <= 8, got {r}")
    classes = []
    d = 0
    # Cauchy-Schwarz on the m_i bounds the degree: (3d - 1)^2 <= r (d^2 + 1)
    while (3 * d - 1) ** 2 <= r * (d * d + 1):
        classes.extend((d, *(-x for x in m))
                       for m in _multiplicities(r, 3 * d - 1, d * d + 1))
        d += 1
    form = [[int(i == j) * (1 if i == 0 else -1) for j in range(r + 1)]
            for i in range(r + 1)]
    primes = [(f"e{k + 1}", vec) for k, vec in enumerate(sorted(classes))]
    return cone_model(form, primes, [3] + [-1] * r)
