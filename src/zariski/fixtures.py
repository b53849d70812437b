"""Deterministic random Lorentzian models and pseudo-effective classes.

Models are produced by conjugating the standard form ``diag(1, -1, ..., -1)``
with a random unimodular integer matrix, so every generated model is exactly
Lorentzian and carries a distinguished class of self-pairing one.  Prime
classes are rejection-sampled in diagonal coordinates where the acceptance
conditions are cheap to state.  Everything is driven by a single seed, and
every draw follows one fixed rule on ``getrandbits`` (:func:`_below`), so a
spec gives the same model and classes on every supported Python.
``del_pezzo`` builds the del Pezzo lattices, whose exceptional-family counts
are known answers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .cone import ConeModel, cone_model
from .exact import Vector, as_vector, dot
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
# draws and exact integer matrix helpers
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from ``range(n)``: ``n.bit_length()`` random bits,
    redrawn while they reach ``n``.  This is the rule ``randrange``,
    ``randint`` and ``choice`` reduce to, so the stream of draws is theirs."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


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
        op = _below(rng, 4)
        i, j = _below(rng, n), _below(rng, n)
        if op == 0 and i != j:
            sign = (1, -1)[_below(rng, 2)]
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
        w = [_below(rng, 2 * bound + 1) - bound for _ in range(n)]
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


def _boundary_classes(model: ConeModel, rng: random.Random) -> list[tuple[int, ...]]:
    """Up to two isotropic integer classes on the positive-cone boundary,
    primitive, found in 80 draws.

    Searches small integer vectors ``v`` of negative self-pairing whose
    two-plane with ``h`` meets the light cone rationally, i.e. the
    discriminant ``q(h, v)^2 - q(h, h) q(v, v)`` is a perfect square; the
    root with nonnegative pairing against ``h`` is returned.  Pairings are
    integer dot products on ``model.compiled``: with ``A = s*Q`` and
    ``H = e*h`` integral, the discriminant is ``(H·A·v)^2 - (H·A·H)(v·A·v)``
    over the square ``(s*e)^2``, so it is a rational square iff that integer
    is a perfect square.  It is positive, since ``v·A·v < 0 < H·A·H``.  The
    root ``v + e*(root - H·A·v)/(H·A·H) * h`` is, scaled by ``H·A·H``, the
    integer vector ``(H·A·H)*v + (root - H·A·v)*H``.
    """
    c = model.compiled
    form, qh, big_h = c.form, c.qh, c.h
    hah = dot(qh, big_h)
    entries = range(model.rank)
    getrandbits = rng.getrandbits
    found: list[tuple[int, ...]] = []
    for _ in range(80):
        if len(found) >= 2:
            break
        v = []
        for _ in entries:  # _below(rng, 7) - 3, inlined
            x = getrandbits(3)
            while x >= 7:
                x = getrandbits(3)
            v.append(x - 3)
        vav = sum(map(mul, v, [sum(map(mul, row, v)) for row in form]))
        if vav >= 0:
            continue
        hav = sum(map(mul, qh, v))
        disc = hav * hav - hah * vav
        root = isqrt(disc)
        if root * root != disc:
            continue
        a = root - hav
        # w != 0: a zero w makes v a multiple of H, so v·A·v >= 0
        w = [hah * x + a * y for x, y in zip(v, big_h)]
        g = gcd(*w)
        found.append(tuple(x // g for x in w))
    return found


def gen_pseudoeffective_class(model: ConeModel, seed: int) -> Vector:
    """Random class in the modeled pseudo-effective cone (decomposable).

    Draws a nonnegative rational combination of the reference class, up to
    two rational boundary classes of the positive cone, and the model's
    primes; zero coefficients are common by design so degenerate corners
    (pure prime sums, boundary classes, the zero class) occur naturally.
    The sum is taken in integers over one common denominator, from the
    integer vectors of ``model.compiled``.
    """
    rng = random.Random(seed)
    c = model.compiled
    parts = [(c.h, c.h_den), *((b, 1) for b in _boundary_classes(model, rng)),
             *zip(c.primes, c.dens)]
    # each part is an integer vector over its denominator; its coefficient,
    # randint(0, 3) / randint(1, 3), scales the numerator and the denominator
    terms = [(_below(rng, 4), den * (1 + _below(rng, 3)), vec) for vec, den in parts]
    common = lcm(*(den for _, den, _ in terms))
    total = [0] * model.rank
    for num, den, vec in terms:
        k = num * (common // den)
        total = [t + k * x for t, x in zip(total, vec)]
    return tuple(Fraction(t, common) for t in total)


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
