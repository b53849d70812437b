"""Exact scalars, quadratic extensions, and symmetric linear algebra."""
from __future__ import annotations

import random
from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zariski import (
    CanonicalizationWarning,
    DegeneratePolynomialError,
    DimensionMismatchError,
    MixedRadicandError,
    QuadExt,
    SingularMatrixError,
    as_vector,
    gram_matrix,
    inner,
    is_negative_definite,
    quadratic_roots,
    signature,
    solve_symmetric,
    split_square,
    symmetric_form,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
nonzero_rationals = rationals.filter(bool)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15])


# ---------------------------------------------------------------------------
# split_square
# ---------------------------------------------------------------------------


def test_split_square_examples():
    assert split_square(12) == (2, 3)
    assert split_square(49) == (7, 1)
    assert split_square(1) == (1, 1)
    assert split_square(360) == (6, 10)
    assert split_square(10**6) == (1000, 1)


def test_split_square_rejects_nonpositive():
    with pytest.raises(ValueError):
        split_square(0)
    with pytest.raises(ValueError):
        split_square(-4)


def test_split_square_beyond_bound_warns_and_leaves_unreduced():
    with pytest.warns(CanonicalizationWarning):
        s, d = split_square(101 * 101, bound=10)
    assert (s, d) == (1, 101 * 101)


def test_split_square_certified_prime_cofactor_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # trial division reaches sqrt(101), certifying the cofactor prime
        assert split_square(4 * 101) == (2, 101)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_split_square_reconstructs_and_is_squarefree(n):
    s, d = split_square(n)
    assert s * s * d == n
    # full trial division: d must carry no square prime factor
    m, p = d, 2
    while p * p <= m:
        assert m % (p * p) != 0
        if m % p == 0:
            m //= p
        else:
            p += 1


# ---------------------------------------------------------------------------
# QuadExt
# ---------------------------------------------------------------------------


def test_quadext_canonicalization():
    assert QuadExt(0, 1, 12) == QuadExt(0, 2, 3)
    assert QuadExt(0, 1, 12).d == 3
    assert QuadExt(1, 2, 4) == QuadExt(5)
    assert QuadExt(1, 2, 4).d == 0
    assert QuadExt(3, 0, 7).d == 0
    assert QuadExt(Q(1, 2), Q(1, 6), 3).is_rational is False
    with pytest.raises(ValueError):
        QuadExt(1, 1, -2)


def test_quadext_equals_rational():
    assert QuadExt(Q(5, 3)) == Q(5, 3)
    assert QuadExt(Q(5, 3)) == QuadExt(Q(5, 3), 0, 11)
    assert hash(QuadExt(Q(5, 3))) == hash(Q(5, 3))
    assert QuadExt(0, 1, 2) != Q(1)


def test_quadext_arithmetic_identities():
    r2 = QuadExt(0, 1, 2)
    assert (1 + r2) * (1 - r2) == -1
    assert 1 / (1 + r2) == -1 + r2
    assert r2 * r2 == 2
    assert (r2**4) == 4
    assert -r2 + r2 == 0
    assert (QuadExt(Q(1, 2), Q(1, 6), 3) * 6) == QuadExt(3, 1, 3)


def test_quadext_mixed_radicands_rejected():
    with pytest.raises(MixedRadicandError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    with pytest.raises(MixedRadicandError):
        QuadExt(1, 1, 5) * QuadExt(1, 1, 7)
    # rational QuadExt values mix freely with any radicand
    assert QuadExt(2, 0, 5) + QuadExt(0, 1, 3) == QuadExt(2, 1, 3)


def test_quadext_comparisons():
    r2 = QuadExt(0, 1, 2)
    assert r2 < Q(3, 2)
    assert r2 > Q(7, 5)
    assert QuadExt(Q(1, 2), Q(1, 6), 3) > Q(1, 2)
    assert QuadExt(Q(1, 2), Q(-1, 6), 3) < Q(1, 2)
    assert QuadExt(-1, 1, 2) > 0  # sqrt(2) > 1
    assert QuadExt(-2, 1, 2) < 0
    assert sorted([Q(1), r2, Q(2)]) == [Q(1), r2, Q(2)]


def test_quadext_zero_with_square_radicand_beyond_bound():
    with pytest.warns(CanonicalizationWarning):
        x = QuadExt(101, -1, 101 * 101, bound=10)
    assert x.sign() == 0
    assert x == 0


def test_quadext_division_errors():
    with pytest.raises(ZeroDivisionError):
        1 / QuadExt(0)
    with pytest.warns(CanonicalizationWarning):
        square = QuadExt(101, -1, 101 * 101, bound=10)
    with pytest.raises(ZeroDivisionError):
        1 / square


def test_quadext_str_and_json_round_trip():
    x = QuadExt(Q(1, 2), Q(-1, 6), 3)
    assert str(x) == "1/2 - 1/6*sqrt(3)"
    assert QuadExt.from_dict(x.to_dict()) == x
    assert str(QuadExt(0, 1, 2)) == "sqrt(2)"
    assert str(QuadExt(7)) == "7"


@given(rationals, rationals, rationals, rationals, radicands)
@settings(max_examples=200, deadline=None)
def test_quadext_ring_axioms(a1, b1, a2, b2, d):
    x = QuadExt(a1, b1, d)
    y = QuadExt(a2, b2, d)
    z = QuadExt(1, 1, d)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x - y) + y == x
    if y != 0:
        assert (x / y) * y == x


@given(rationals, rationals, radicands)
@settings(max_examples=200, deadline=None)
def test_quadext_sign_against_integer_interval_oracle(a, b, d):
    """Bracket sqrt(d) between scaled integer square roots and compare."""
    x = QuadExt(a, b, d)
    scale = 10**12
    lo = Q(isqrt(d * scale * scale), scale)  # lo <= sqrt(d) < lo + 1/scale
    hi = lo + Q(1, scale)
    bounds = sorted([a + b * lo, a + b * hi])
    if bounds[0] > 0:
        assert x.sign() == 1
    elif bounds[1] < 0:
        assert x.sign() == -1
    else:
        # the bracket is 1e-12 wide; with b != 0 the value a + b*sqrt(d) is a
        # nonzero quadratic irrational far larger than that, so a straddle
        # can only be the exact rational zero
        assert a == 0 and b == 0
        assert x.sign() == 0


# ---------------------------------------------------------------------------
# quadratic_roots
# ---------------------------------------------------------------------------


def test_quadratic_roots_examples():
    r1, r2 = quadratic_roots(6, -6, 1)
    assert r1 == QuadExt(Q(1, 2), Q(-1, 6), 3)
    assert r2 == QuadExt(Q(1, 2), Q(1, 6), 3)
    assert quadratic_roots(1, -2, 1) == (QuadExt(1),)
    assert quadratic_roots(1, 0, 1) == ()
    assert quadratic_roots(1, -3, 2) == (QuadExt(1), QuadExt(2))
    golden = quadratic_roots(1, -1, -1)
    assert golden[1] == QuadExt(Q(1, 2), Q(1, 2), 5)


def test_quadratic_roots_degenerate():
    with pytest.raises(DegeneratePolynomialError):
        quadratic_roots(0, 1, 1)


@given(nonzero_rationals, rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_quadratic_roots_satisfy_polynomial(a, b, c):
    roots = quadratic_roots(a, b, c)
    disc = b * b - 4 * a * c
    assert len(roots) == (0 if disc < 0 else 1 if disc == 0 else 2)
    for r in roots:
        assert a * r * r + b * r + c == 0
    if len(roots) == 2:
        assert roots[0] < roots[1]
        assert roots[0].d == roots[1].d


# ---------------------------------------------------------------------------
# symmetric linear algebra
# ---------------------------------------------------------------------------


def test_inner_examples():
    q = symmetric_form([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    assert inner(q, as_vector([1, 2, 1]), as_vector([0, 1, 0])) == -3
    diag = symmetric_form([[1, 0], [0, -1]])
    assert inner(diag, as_vector([1, 2]), as_vector([1, 2])) == -3


def test_inner_dimension_mismatch():
    q = symmetric_form([[1, 0], [0, -1]])
    with pytest.raises(DimensionMismatchError):
        inner(q, as_vector([1, 2, 3]), as_vector([1, 2]))


def test_symmetric_form_rejects_asymmetry():
    with pytest.raises(ValueError):
        symmetric_form([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):
        symmetric_form([[1, 2], [2]])


def test_signature_examples():
    assert signature(symmetric_form([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(symmetric_form([[2, 1], [1, 2]])) == (2, 0, 0)
    assert signature(symmetric_form([[1, 0], [0, -1]])) == (1, 1, 0)
    assert signature(symmetric_form([[0, 0], [0, 0]])) == (0, 0, 2)
    assert signature(symmetric_form([])) == (0, 0, 0)
    assert signature(
        symmetric_form([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    ) == (0, 2, 1)


def test_negative_definite_examples():
    assert is_negative_definite(symmetric_form([[-2, 1], [1, -2]]))
    assert is_negative_definite(symmetric_form([[-1]]))
    assert is_negative_definite(symmetric_form([]))
    assert not is_negative_definite(symmetric_form([[0]]))
    assert not is_negative_definite(symmetric_form([[1]]))
    assert not is_negative_definite(
        symmetric_form([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    )
    # a zero pivot, first in the leading position, then in a later one
    assert not is_negative_definite(symmetric_form([[0, 1], [1, -1]]))
    assert not is_negative_definite(symmetric_form([[-1, 1], [1, -1]]))


def test_solve_symmetric_examples():
    g = symmetric_form([[-2, 1], [1, -2]])
    assert solve_symmetric(g, [-3, 0]) == (Q(2), Q(1))
    g2 = symmetric_form([[-2, 0], [0, -2]])
    assert solve_symmetric(g2, [-2, -4]) == (Q(1), Q(2))
    # zero leading pivot: the solve must exchange rows
    g3 = symmetric_form([[0, 1], [1, 0]])
    assert solve_symmetric(g3, [2, 3]) == (Q(3), Q(2))


def test_solve_symmetric_singular():
    with pytest.raises(SingularMatrixError):
        solve_symmetric(symmetric_form([[1, 1], [1, 1]]), [1, 0])
    with pytest.raises(DimensionMismatchError):
        solve_symmetric(symmetric_form([[1]]), [1, 2])


def _random_symmetric(rng: random.Random, n: int):
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return symmetric_form(rows)


def _random_unimodular_rows(rng: random.Random, n: int):
    u = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(6 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        sign = rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return u


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_signature_congruence_invariance(seed, n):
    rng = random.Random(seed)
    form = _random_symmetric(rng, n)
    u = _random_unimodular_rows(rng, n)
    conjugated = symmetric_form(
        [
            [
                sum(
                    u[k][i] * form.entries[k][l] * u[l][j]
                    for k in range(n)
                    for l in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert signature(form) == signature(conjugated)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_negative_definite_agrees_with_signature(seed, n):
    """Two independent code paths must agree on definiteness."""
    rng = random.Random(seed)
    form = _random_symmetric(rng, n)
    assert is_negative_definite(form) == (signature(form) == (0, n, 0))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_negative_definiteness_is_hereditary(seed, n):
    rng = random.Random(seed)
    m = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    # -(M^T M + I) is always negative definite
    rows = [
        [
            -sum(m[k][i] * m[k][j] for k in range(n)) - (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    g = symmetric_form(rows)
    assert is_negative_definite(g)
    keep = sorted(rng.sample(range(n), rng.randint(1, n)))
    sub = symmetric_form([[rows[i][j] for j in keep] for i in keep])
    assert is_negative_definite(sub)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_solve_symmetric_satisfies_system(seed, n):
    rng = random.Random(seed)
    m = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows = [
        [
            -sum(m[k][i] * m[k][j] for k in range(n)) - (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    g = symmetric_form(rows)
    rhs = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    x = solve_symmetric(g, rhs)
    for i in range(n):
        assert sum(g.entries[i][j] * x[j] for j in range(n)) == rhs[i]


def test_gram_matrix():
    q = symmetric_form([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    vecs = [as_vector([0, 1, 0]), as_vector([0, 0, 1])]
    g = gram_matrix(q, vecs)
    assert g.entries == ((Q(-2), Q(1)), (Q(1), Q(-2)))
