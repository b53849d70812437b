"""Exact scalar arithmetic and exact symmetric linear algebra.

Every number that influences a decision in this package is either a
`fractions.Fraction` or a :class:`QuadExt` value ``a + b*sqrt(d)`` with
rational ``a``, ``b`` and a nonnegative integer radicand ``d``.  No floats
appear on any decision path; floating point is reserved for display-only
approximations elsewhere.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, total_ordering
from itertools import compress
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Vector = tuple[Fraction, ...]
Scalar = Union[Fraction, "QuadExt"]

SQUAREFREE_BOUND = 10**6
# trial division tries every odd number below this, then only the primes
_PRIME_TABLE_FROM = 1000


class MixedRadicandError(ValueError):
    """Two quadratic extensions with distinct radicands were combined."""


class DegeneratePolynomialError(ValueError):
    """The leading coefficient of a quadratic polynomial vanished."""


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not agree."""


class CanonicalizationWarning(UserWarning):
    """A radicand could not be certified squarefree within the bound."""


@cache
def _table_primes() -> tuple[int, ...]:
    """The primes from ``_PRIME_TABLE_FROM`` to :data:`SQUAREFREE_BOUND`,
    sieved once, when trial division first gets that far."""
    size = SQUAREFREE_BOUND + 1
    sieve = bytearray([1]) * size
    for p in range(2, isqrt(SQUAREFREE_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    return tuple(compress(range(_PRIME_TABLE_FROM, size), sieve[_PRIME_TABLE_FROM:]))


def _trial_divisors():
    """2, the odd numbers below ``_PRIME_TABLE_FROM``, then the primes of the
    table: every prime up to the bound, in increasing order."""
    yield 2
    yield from range(3, _PRIME_TABLE_FROM, 2)
    yield from _table_primes()


def split_square(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` extracting square prime factors.

    Returns ``(s, d)``.  Trial division stops at :data:`SQUAREFREE_BOUND`;
    if a cofactor survives it without being certified prime (the first odd
    number past the bound, squared, does not exceed it), it is folded into
    ``d`` unreduced and a :class:`CanonicalizationWarning` is emitted.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d, m = 1, 1, n
    for p in _trial_divisors():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
    else:
        past = (SQUAREFREE_BOUND + 1) | 1
        if past * past <= m:
            warnings.warn(
                f"radicand cofactor of {m.bit_length()} bits has no prime factor "
                f"below {SQUAREFREE_BOUND}; "
                "leaving it unreduced",
                CanonicalizationWarning,
                stacklevel=2,
            )
    if m > 1:
        d *= m
    return s, d


def describe(x: Fraction) -> str:
    """``str(x)`` for a message, which must not raise: past the digit limit, its size."""
    try:
        return str(x)
    except ValueError:
        return f"<a number of {x.numerator.bit_length()} bits>"


@total_ordering
class QuadExt:
    """Exact element ``a + b*sqrt(d)`` of a real quadratic extension of Q.

    The value is held as four integers, ``(p + q*sqrt(d)) / n`` with ``n > 0``
    and ``gcd(p, q, n) == 1``; ``a`` and ``b`` are read as Fractions.  The
    constructor canonicalizes the radicand: square factors found by trial
    division move into ``b``, perfect squares collapse to rationals, and a
    rational value always carries ``q == d == 0``.  Arithmetic results keep
    their operands' radicand, which is reduced already.  The ring operations,
    sign and order are exact integer arithmetic with one gcd per result, and
    there is no division; combining two distinct irrational radicands raises
    :class:`MixedRadicandError`.
    """

    __slots__ = ("p", "q", "n", "d")

    def __new__(cls, a=0, b=0, d=0):
        a, b, d = Fraction(a), Fraction(b), int(d)
        if d < 0:
            raise ValueError(f"radicand must be nonnegative, got {d}")
        if b and d > 1:
            s, d = split_square(d)
            b *= s
        return cls._reduced(a, b, d)

    @classmethod
    def _reduced(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """``a + b*sqrt(d)`` for a radicand ``d`` that is already reduced."""
        if d <= 1:
            a, b, d = a + b * d, 0, 0
        n = lcm(a.denominator, b.denominator)
        return cls._of(a.numerator * (n // a.denominator),
                       b.numerator * (n // b.denominator), n, d)

    @staticmethod
    def _of(p: int, q: int, n: int, d: int) -> "QuadExt":
        """``(p + q*sqrt(d)) / n`` for ``n > 0``, in lowest terms."""
        g = gcd(p, q, n)
        out = object.__new__(QuadExt)
        out.p, out.q, out.n, out.d = p // g, q // g, n // g, d if q else 0
        return out

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n)

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def sign(self) -> int:
        """The sign ``p`` and ``q`` share, or else that of the larger of ``p**2``
        and ``q**2 * d``."""
        p, q = self.p, self.q
        s = (p or q) if p * q >= 0 else (p * p - q * q * self.d) * p
        return (s > 0) - (s < 0)

    # -- arithmetic ----------------------------------------------------

    def _unify(self, other) -> tuple[int, int, int, int] | None:
        """``other`` as ``(p, q, n, d)`` over the radicand the two share."""
        if isinstance(other, QuadExt):
            if self.d and other.d and self.d != other.d:
                raise MixedRadicandError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other.p, other.q, other.n, self.d or other.d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, self.d
        return None

    def __add__(self, other):
        if (other := self._unify(other)) is None:
            return NotImplemented
        p, q, n, d = other
        return QuadExt._of(self.p * n + p * self.n, self.q * n + q * self.n, self.n * n, d)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := self._unify(other)) is None:
            return NotImplemented
        p, q, n, d = other
        return QuadExt._of(self.p * n - p * self.n, self.q * n - q * self.n, self.n * n, d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if (other := self._unify(other)) is None:
            return NotImplemented
        p, q, n, d = other
        return QuadExt._of(self.p * p + self.q * q * d, self.p * q + self.q * p, self.n * n, d)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExt._of(-self.p, -self.q, self.n, self.d)

    # -- comparisons ---------------------------------------------------

    def _diff_sign(self, other) -> int | None:
        diff = self.__sub__(other)
        return None if diff is NotImplemented else diff.sign()

    def __eq__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s == 0

    def __lt__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s < 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.sign() != 0

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        return f"QuadExt({self.a!s}, {self.b!s}, {self.d})"

    def __str__(self):
        if self.is_rational:
            return str(self.a)
        radical = f"sqrt({self.d})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return radical if self.b > 0 else f"-{radical}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {radical}"


def quadratic_roots(a, b, c) -> tuple[QuadExt, ...]:
    """Real roots of ``a*x^2 + b*x + c`` over Q, ascending, as QuadExt values.

    Both roots of an irrational pair share a single canonicalized radicand.
    Raises :class:`DegeneratePolynomialError` when ``a == 0``.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise DegeneratePolynomialError("leading coefficient is zero")
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (QuadExt(-b / (2 * a)),)
    num, den = disc.numerator, disc.denominator
    s, d = split_square(num * den)
    # sqrt(disc) == (s / den) * sqrt(d), so the roots are centre -/+ step*sqrt(d)
    # with step > 0; a square disc gives d == 1, which collapses to rationals
    centre, step = -b / (2 * a), Fraction(s, den) / (2 * abs(a))
    return (QuadExt._reduced(centre, -step, d), QuadExt._reduced(centre, step, d))


# ---------------------------------------------------------------------------
# vectors and symmetric forms
# ---------------------------------------------------------------------------


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to an exact vector.

    A tuple that already holds only Fractions is returned as it is.
    """
    if type(coords) is tuple and all(type(x) is Fraction for x in coords):
        return coords
    return tuple(Fraction(x) for x in coords)


def clear_denominators(vec: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with ``ints == den * vec``; ``den`` is the least positive one."""
    ratios = [x.as_integer_ratio() for x in vec]  # one read of each entry
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return tuple([n for n, _ in ratios]), 1
    return tuple([n * (den // d) for n, d in ratios]), den


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Plain dot product, meant for integer vectors."""
    return sum(map(mul, u, v))


def combine(base: Vector, terms: Iterable[tuple[Fraction, Vector]]) -> Vector:
    """``base + sum(c * v for c, v in terms)``.

    Zero coefficients are skipped, and a zero entry of ``v`` keeps the
    entry of the running total as it is, without a new Fraction.
    """
    total = base
    for c, v in terms:
        if c:
            total = tuple(a + c * b if b else a for a, b in zip(total, v, strict=True))
    return total


@dataclass(frozen=True)
class SymmetricForm:
    """An exact symmetric bilinear form given by its Gram matrix."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise DimensionMismatchError(
                    f"row {i} has length {len(row)}, expected {n}"
                )
        if tuple(zip(*self.entries)) != self.entries:  # name the first asymmetric entry
            for i in range(n):
                for j in range(i):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, scale)``: the integer matrix ``scale * Q`` for the least
        positive integer ``scale`` that makes it integral, built once."""
        entries, scale = clear_denominators(x for row in self.entries for x in row)
        n = self.rank
        return tuple(entries[i * n:(i + 1) * n] for i in range(n)), scale


def symmetric_form(rows: Sequence[Sequence]) -> SymmetricForm:
    """Build a :class:`SymmetricForm`, coercing entries to Fractions.

    A row that is already a tuple of Fractions is kept as it is.
    """
    return SymmetricForm(tuple(as_vector(row) for row in rows))


def inner(form: SymmetricForm, u: Sequence, v: Sequence) -> Fraction:
    """Evaluate the bilinear pairing ``u^T Q v`` exactly.

    The sum runs in integers: ``form.cleared`` is ``scale * Q``, and ``u``
    and ``v`` are cleared over their own denominators ``du``, ``dv``, so the
    pairing is one Fraction with denominator ``scale * du * dv``.
    """
    n = form.rank
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(
            f"vectors of length {len(u)}, {len(v)} against a rank-{n} form"
        )
    rows, scale = form.cleared
    u, du = clear_denominators(u)
    v, dv = clear_denominators(v)
    return Fraction(
        sum(ui * dot(row, v) for ui, row in zip(u, rows) if ui), scale * du * dv
    )


def gram_matrix(form: SymmetricForm, vectors: Sequence[Sequence]) -> SymmetricForm:
    """The :func:`inner` values of `vectors` under `form`: each vector is cleared
    once and paired against the integer images ``(scale * Q) · v`` of the others."""
    if any(len(v) != form.rank for v in vectors):
        raise DimensionMismatchError(f"a vector of the family is not of length {form.rank}")
    rows, scale = form.cleared
    cleared = [clear_denominators(v) for v in vectors]
    images = [[dot(row, v) for row in rows] for v, _ in cleared]
    out = [[0] * len(vectors) for _ in vectors]
    for i, (u, du) in enumerate(cleared):
        for j in range(i + 1):
            out[i][j] = out[j][i] = Fraction(dot(u, images[j]), scale * du * cleared[j][1])
    return SymmetricForm(tuple(map(tuple, out)))


def schur_complement(m: Sequence[Sequence[int]], t: int, keep: Sequence[int],
                     prev: int, diag: Sequence[int] | None = None) -> list[list[int]]:
    """One fraction-free (Bareiss, 1968) step on the symmetric integer `m`.

    Entry ``[i][j]`` of the result is ``(p * m[a][b] - m[a][t] * m[t][b]) / prev``
    for ``a, b = keep[i], keep[j]`` and the pivot ``p = m[t][t]``; one triangle
    is computed and mirrored.  A caller that already holds the diagonal
    numerators ``p * m[a][a] - m[a][t]**2`` passes them as `diag`, one per
    kept index, and only the off-diagonal numerators are formed here.  On a
    matrix of bordered minors over the previous pivot `prev` (of either sign)
    every division is exact; a remainder, supplied diagonal included, raises
    :class:`ArithmeticError`.
    """
    row, p = m[t], m[t][t]
    n = len(keep)
    out = [[0] * n for _ in range(n)]
    if diag is None:
        first = 0
    else:
        first = 1
        for i, d in enumerate(diag):
            q, rest = divmod(d, prev)
            if rest:
                raise ArithmeticError(f"Bareiss step left remainder {rest} on division by {prev}")
            out[i][i] = q
    for i, a in enumerate(keep):
        ma, ra, oi = m[a], row[a], out[i]
        for j in range(i + first, n):
            b = keep[j]
            q, rest = divmod(p * ma[b] - ra * row[b], prev)
            if rest:
                raise ArithmeticError(f"Bareiss step left remainder {rest} on division by {prev}")
            oi[j] = out[j][i] = q
    return out


def signature(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia ``(n_plus, n_minus, n_zero)`` of the symmetric integer `rows`.

    Fraction-free steps (:func:`schur_complement` at the leading entry) keep
    the working matrix ``prev`` times the reduced one, so a pivot ``p`` has the
    sign ``sign(p) * sign(prev)``; ``prev`` may be negative.  Only symmetric
    row/column operations are used.
    """
    m = [list(row) for row in rows]
    plus = minus = zero = 0
    prev = 1
    while m:
        k = len(m)
        if m[0][0] == 0:
            off = next((j for j in range(1, k) if m[0][j] != 0), None)
            if off is None:
                zero += 1
                m = [row[1:] for row in m[1:]]
                continue
            # the new pivot 2t*m[0][off] + m[off][off] is nonzero for t = 1 or t = -1
            t = 1 if 2 * m[0][off] + m[off][off] else -1
            for c in range(k):
                m[0][c] += t * m[off][c]
            for row in m:
                row[0] += t * row[off]
        p = m[0][0]
        if (p > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        m = schur_complement(m, 0, range(1, k), prev)
        prev = p
    return plus, minus, zero


def is_negative_definite(rows: Sequence[Sequence[int]]) -> bool:
    """Exact negative-definiteness test: the integer `rows` have inertia ``(0, n, 0)``."""
    return signature(rows) == (0, len(rows), 0)


def solve_cleared(rows: Sequence[Sequence[int]],
                  b: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """``(z, det(rows))`` with ``rows · z = det(rows) · b`` for a negative definite symmetric
    integer `rows`, else ``None``.  :func:`schur_complement` steps at the leading entry of
    ``[[rows, b], [b^T, 0]]`` have its leading principal minors as pivots, which alternate
    from negative iff `rows` is negative definite (Sylvester); the last step, which only builds
    the unread bordered corner, is skipped.  ``z`` is integral (Cramer): divisions are exact."""
    m = [[*row, bi] for row, bi in zip(rows, b)] + [[*b, 0]]
    pivot_rows, prev = [], 1
    for k in range(len(b), 0, -1):  # k rows of `rows` left in m
        p = m[0][0]
        if p * prev >= 0:
            return None
        pivot_rows.append(m[0])
        if k > 1:
            m = schur_complement(m, 0, range(1, len(m)), prev)
        prev = p
    z: tuple[int, ...] = ()
    for row in reversed(pivot_rows):
        z = ((prev * row[-1] - dot(row[1:-1], z)) // row[0], *z)
    return z, prev


def solve_symmetric(gram: SymmetricForm, rhs: Sequence) -> Vector | None:
    """Solve ``gram * x = rhs`` exactly, or ``None`` unless `gram` is negative definite:
    :func:`solve_cleared` on ``G = scale * gram`` and ``b = den * rhs`` gives
    ``x = z * scale / (det(G) * den)``."""
    n = gram.rank
    if len(rhs) != n:
        raise DimensionMismatchError(
            f"right-hand side of length {len(rhs)} against a rank-{n} matrix"
        )
    rows, scale = gram.cleared
    b, den = clear_denominators(map(Fraction, rhs))
    if (solved := solve_cleared(rows, b)) is None:
        return None
    return tuple(Fraction(v * scale, solved[1] * den) for v in solved[0])
