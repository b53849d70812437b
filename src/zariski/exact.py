"""Exact scalar arithmetic and exact symmetric linear algebra.

Every number that influences a decision in this package is either a
`fractions.Fraction` or a :class:`QuadExt` value ``a + b*sqrt(d)`` with
rational ``a``, ``b`` and a nonnegative integer radicand ``d``.  No floats
appear on any decision path; floating point is reserved for display-only
approximations elsewhere.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

Vector = tuple[Fraction, ...]
Scalar = Union[Fraction, "QuadExt"]

DEFAULT_SQUAREFREE_BOUND = 10**6
SQUAREFREE_BOUND_ENV = "ZARISKI_SQUAREFREE_BOUND"


class MixedRadicandError(ValueError):
    """Two quadratic extensions with distinct radicands were combined."""


class DegeneratePolynomialError(ValueError):
    """The leading coefficient of a quadratic polynomial vanished."""


class SingularMatrixError(ValueError):
    """A linear solve met a singular coefficient matrix."""


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not agree."""


class SquarefreeBoundError(ValueError):
    """The radicand-reduction bound from the environment is not a positive integer."""


class CanonicalizationWarning(UserWarning):
    """A radicand could not be certified squarefree within the bound."""


def squarefree_bound() -> int:
    """Trial-division bound for radicand reduction (env-overridable)."""
    raw = os.environ.get(SQUAREFREE_BOUND_ENV)
    if raw is None:
        return DEFAULT_SQUAREFREE_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise SquarefreeBoundError(
            f"{SQUAREFREE_BOUND_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise SquarefreeBoundError(f"{SQUAREFREE_BOUND_ENV} must be positive, got {value}")
    return value


def split_square(n: int, bound: int | None = None) -> tuple[int, int]:
    """Write ``n = s*s*d`` extracting square prime factors up to `bound`.

    Returns ``(s, d)``.  If a cofactor survives trial division without being
    certified prime, it is folded into ``d`` unreduced and a
    :class:`CanonicalizationWarning` is emitted.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if bound is None:
        bound = squarefree_bound()
    s, d, m = 1, 1, n
    p = 2
    while p <= bound and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p = 3 if p == 2 else p + 2
    if m > 1:
        if p * p <= m:
            warnings.warn(
                f"radicand cofactor {m} has no prime factor below {bound}; "
                "leaving it unreduced",
                CanonicalizationWarning,
                stacklevel=2,
            )
        d *= m
    return s, d


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class QuadExt:
    """Exact element ``a + b*sqrt(d)`` of a real quadratic extension of Q.

    The radicand is canonicalized on construction: square factors found by
    trial division move into ``b``, perfect squares collapse to rationals,
    and a rational value always carries ``d == 0``.  All arithmetic and
    comparisons are exact; combining two distinct irrational radicands
    raises :class:`MixedRadicandError`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0, *, bound: int | None = None):
        a, b, d = Fraction(a), Fraction(b), int(d)
        if d < 0:
            raise ValueError(f"radicand must be nonnegative, got {d}")
        if b and d > 1:
            s, d = split_square(d, bound)
            b *= s
        if d <= 1:
            a, b, d = a + b * d, Fraction(0), 0
        if not b:
            d = 0
        self.a: Fraction = a
        self.b: Fraction = b
        self.d: int = d

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return _sign(a)
        if a == 0:
            return _sign(b)
        if (a > 0) == (b > 0):
            return _sign(a)
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        return _sign(a) if lhs > rhs else _sign(b)

    # -- arithmetic ----------------------------------------------------

    def _unify(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            pass
        elif isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        else:
            return None
        if self.d and other.d and self.d != other.d:
            raise MixedRadicandError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return other

    def __add__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return QuadExt(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return QuadExt(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return QuadExt(other.a - self.a, other.b - self.b, d)

    def __mul__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return QuadExt(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.sign() == 0:
                raise ZeroDivisionError("division by zero")
            raise ArithmeticError(
                f"cannot invert {self}: unreduced radicand {self.d} is a "
                "perfect square"
            )
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = self._unify(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = QuadExt(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons ---------------------------------------------------

    def _diff_sign(self, other) -> int | None:
        other = self._unify(other)
        if other is None:
            return None
        return (self - other).sign()

    def __eq__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s == 0

    def __lt__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s >= 0

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

    def to_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "d": self.d}

    @classmethod
    def from_dict(cls, data: dict) -> "QuadExt":
        return cls(Fraction(data["a"]), Fraction(data["b"]), int(data["d"]))


def quadratic_roots(
    a, b, c, *, bound: int | None = None
) -> tuple[QuadExt, ...]:
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
    s, d = split_square(num * den, bound)
    root = Fraction(s, den)  # sqrt(disc) == root * sqrt(d)
    half = 1 / (2 * a)
    if d == 1:
        lo, hi = sorted(((-b - root) * half, (-b + root) * half))
        return (QuadExt(lo), QuadExt(hi))
    r1 = QuadExt(-b * half, -root * half, d)
    r2 = QuadExt(-b * half, root * half, d)
    return (r1, r2) if r1 < r2 else (r2, r1)


# ---------------------------------------------------------------------------
# vectors and symmetric forms
# ---------------------------------------------------------------------------


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to an exact vector."""
    return tuple(Fraction(x) for x in coords)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in u)


def zero_vector(rank: int) -> Vector:
    return (Fraction(0),) * rank


def combine(base: Vector, terms: Iterable[tuple[Fraction, Vector]]) -> Vector:
    """``base + sum(c * v for c, v in terms)``; zero coefficients are skipped."""
    total = base
    for c, v in terms:
        if c:
            total = tuple(a + c * b for a, b in zip(total, v, strict=True))
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
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(
                        f"matrix is not symmetric at ({i}, {j})"
                    )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]


def symmetric_form(rows: Sequence[Sequence]) -> SymmetricForm:
    """Build a :class:`SymmetricForm`, coercing entries to Fractions."""
    return SymmetricForm(tuple(tuple(Fraction(x) for x in row) for row in rows))


def inner(form: SymmetricForm, u: Sequence, v: Sequence) -> Fraction:
    """Evaluate the bilinear pairing ``u^T Q v`` exactly."""
    n = form.rank
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(
            f"vectors of length {len(u)}, {len(v)} against a rank-{n} form"
        )
    total = Fraction(0)
    for i, ui in enumerate(u):
        if ui:
            row = form.entries[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


def gram_matrix(form: SymmetricForm, vectors: Sequence[Sequence]) -> SymmetricForm:
    """Gram matrix of a family of vectors under `form`."""
    k = len(vectors)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = inner(form, vectors[i], vectors[j])
    return SymmetricForm(tuple(tuple(row) for row in rows))


def _swap_sym(m: list[list[Fraction]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_sym(m: list[list[Fraction]], i: int, j: int) -> None:
    for c in range(len(m)):
        m[i][c] = m[i][c] + m[j][c]
    for row in m:
        row[i] = row[i] + row[j]


def signature(form: SymmetricForm) -> tuple[int, int, int]:
    """Inertia ``(n_plus, n_minus, n_zero)`` by exact congruence reduction.

    Pivots are produced by symmetric row/column operations only, so the
    count is exact; no numerical tolerance is involved.
    """
    m = form.rows()
    plus = minus = zero = 0
    while m:
        k = len(m)
        if m[0][0] == 0:
            pivot = next((i for i in range(1, k) if m[i][i] != 0), None)
            if pivot is not None:
                _swap_sym(m, 0, pivot)
            else:
                off = next((j for j in range(1, k) if m[0][j] != 0), None)
                if off is None:
                    zero += 1
                    m = [row[1:] for row in m[1:]]
                    continue
                _add_sym(m, 0, off)
        p = m[0][0]
        if p > 0:
            plus += 1
        else:
            minus += 1
        m = [
            [m[i][j] - m[i][0] * m[0][j] / p for j in range(1, k)]
            for i in range(1, k)
        ]
    return plus, minus, zero


def is_negative_definite(gram: SymmetricForm) -> bool:
    """Exact negative-definiteness test via pivot signs.

    Symmetric elimination without row exchanges yields pivots equal to
    ratios of leading principal minors; the matrix is negative definite
    iff every pivot is negative (Sylvester's criterion).  A zero pivot means
    a leading principal minor vanishes, so the matrix is not definite.
    """
    n = gram.rank
    if n == 0:
        return True
    m = gram.rows()
    for k in range(n):
        p = m[k][k]
        if p >= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / p
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def solve_symmetric(gram: SymmetricForm, rhs: Sequence) -> Vector:
    """Solve ``gram * x = rhs`` exactly; raises on a singular matrix."""
    n = gram.rank
    if len(rhs) != n:
        raise DimensionMismatchError(
            f"right-hand side of length {len(rhs)} against a rank-{n} matrix"
        )
    aug = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(gram.entries)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("coefficient matrix is singular")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        p = aug[k][k]
        for i in range(k + 1, n):
            if aug[i][k]:
                f = aug[i][k] / p
                for j in range(k, n + 1):
                    aug[i][j] -= f * aug[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = aug[k][n] - sum(aug[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / aug[k][k]
    return tuple(x)
