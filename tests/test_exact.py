"""Exact scalars, quadratic extensions, and symmetric linear algebra."""
from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import permutations
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zariski import (
    CanonicalizationWarning,
    DegeneratePolynomialError,
    DimensionMismatchError,
    MixedRadicandError,
    QuadExt,
    as_vector,
    decimal_approx,
    exact,
    gram_matrix,
    inner,
    is_negative_definite,
    quadratic_roots,
    signature,
    solve_symmetric,
    split_square,
    symmetric_form,
)
from zariski.exact import (
    SQUAREFREE_BOUND,
    _table_primes,
    dot,
    schur_complement,
    solve_cleared,
)

# n/d with d <= 6 and |n| <= 6d: the support of st.fractions(-6, 6,
# max_denominator=6), drawn without its flatmap; k*d // 6 takes every
# value in [-6d, 6d] as k runs over [-36, 36]
rationals = st.builds(
    lambda d, k: Q(k * d // 6, d), st.integers(1, 6), st.integers(-36, 36)
)
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


# the least prime past the trial-division bound
PAST_BOUND = 1000003


def test_split_square_beyond_bound_warns_and_leaves_unreduced():
    assert PAST_BOUND > SQUAREFREE_BOUND
    with pytest.warns(CanonicalizationWarning):
        s, d = split_square(PAST_BOUND**2)
    assert (s, d) == (1, PAST_BOUND**2)


def test_split_square_warning_gives_the_cofactor_size():
    """A cofactor past the int-to-str digit limit cannot be printed whole."""
    n = PAST_BOUND**720
    with pytest.warns(CanonicalizationWarning, match=f"of {n.bit_length()} bits"):
        assert split_square(n) == (1, n)


# the greatest prime below the bound
LAST_TABLE_PRIME = 999983


@pytest.mark.parametrize("n, expected", [
    (LAST_TABLE_PRIME**2 * 3, (LAST_TABLE_PRIME, 3)),
    # the cofactor is left past the bound, but below (bound + 1)^2: it is prime
    (PAST_BOUND * LAST_TABLE_PRIME**2, (LAST_TABLE_PRIME, PAST_BOUND)),
    # a prime past bound^2 but below (bound + 1)^2, the first odd number past
    # the bound squared: no prime below the bound divides it, so it is prime
    (10**12 + 39, (1, 10**12 + 39)),
])
def test_split_square_at_the_bound_does_not_warn(n, expected):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert split_square(n) == expected


def test_split_square_table_holds_the_primes_to_the_bound():
    table = _table_primes()
    assert len(table) == 78498 - 168  # primes below 10^6, less those below 1000
    assert (table[0], table[-1]) == (1009, LAST_TABLE_PRIME)


def test_split_square_small_radicands_build_no_table():
    _table_primes.cache_clear()
    for n in range(1, 5000):
        split_square(n)
    assert split_square(997**2 * 991) == (997, 991)
    assert _table_primes.cache_info().currsize == 0


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
    assert r2 * r2 == 2
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


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda q: q + "x", TypeError),
        (lambda q: "x" - q, TypeError),
        (lambda q: q - "x", TypeError),
        (lambda q: q * None, TypeError),
        (lambda q: q < "x", TypeError),
        (lambda q: q == "x", False),
        (lambda q: hash(QuadExt(1, 2, 8)) == hash(QuadExt(1, 4, 2)), True),
        (lambda q: not QuadExt(0, 0, 3), True),
        (lambda q: bool(QuadExt(0, 1, 3)), True),
    ],
    ids=["add-str", "str-sub", "sub-str", "mul-none", "lt-str", "eq-str", "irrational-hash",
         "zero-is-falsy", "irrational-is-truthy"],
)
def test_quadext_foreign_operands_hash_and_truth(op, expected):
    q = QuadExt(1, 1, 2)
    if expected is TypeError:
        with pytest.raises(TypeError):
            op(q)
    else:
        assert op(q) is expected


def test_quadext_zero_with_square_radicand_beyond_bound():
    with pytest.warns(CanonicalizationWarning):
        x = QuadExt(PAST_BOUND, -1, PAST_BOUND**2)
    assert x.sign() == 0
    assert x == 0


def test_rational_results_carry_no_radicand():
    x = QuadExt(Q(1, 2), 1, 3)
    assert repr(x - QuadExt(0, 1, 3)) == "QuadExt(1/2, 0, 0)"
    assert repr(x * QuadExt(Q(1, 2), -1, 3)) == "QuadExt(-11/4, 0, 0)"
    assert [repr(r) for r in quadratic_roots(1, -3, 2)] == [
        "QuadExt(1, 0, 0)", "QuadExt(2, 0, 0)"
    ]


def test_quadext_str_and_json_round_trip():
    x = QuadExt(Q(1, 2), Q(-1, 6), 3)
    assert str(x) == "1/2 - 1/6*sqrt(3)"
    assert str(QuadExt(0, 1, 2)) == "sqrt(2)"
    assert str(QuadExt(7)) == "7"
    assert str(QuadExt(0, -1, 3)) == "-sqrt(3)"
    assert str(QuadExt(2, -1, 3)) == "2 - sqrt(3)"


@given(rationals, rationals, rationals, rationals, radicands)
@settings(max_examples=200, deadline=None)
def test_quadext_ring_axioms(a1, b1, a2, b2, d):
    x = QuadExt(a1, b1, d)
    y = QuadExt(a2, b2, d)
    z = QuadExt(1, 1, d)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x - y) + y == x


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


# -- a Fraction reference: the rules of QuadExt on (a, b, d) triples ------------


def ref_quad(a, b=0, d=0) -> tuple[Q, Q, int]:
    """The triple that ``QuadExt(a, b, d)`` stands for."""
    a, b, d = Q(a), Q(b), int(d)
    if b and d > 1:
        s, d = split_square(d)
        b *= s
    return ref_reduced(a, b, d)


def ref_reduced(a: Q, b: Q, d: int) -> tuple[Q, Q, int]:
    if d <= 1:
        a, b, d = a + b * d, Q(0), 0
    return (a, b, d) if b else (a, b, 0)


def ref_radicand(x, y) -> int:
    if x[2] and y[2] and x[2] != y[2]:
        raise MixedRadicandError(f"cannot combine sqrt({x[2]}) with sqrt({y[2]})")
    return x[2] or y[2]


def ref_add(x, y):
    return ref_reduced(x[0] + y[0], x[1] + y[1], ref_radicand(x, y))


def ref_neg(x):
    return ref_reduced(-x[0], -x[1], x[2])


def ref_mul(x, y):
    d = ref_radicand(x, y)
    return ref_reduced(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def ref_sign(x) -> int:
    a, b, d = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if b == 0 or a == 0 or sa == sb:
        return sa or sb
    lhs, rhs = a * a, b * b * d
    return 0 if lhs == rhs else (sa if lhs > rhs else sb)


def ref_str(x) -> str:
    a, b, d = x
    if b == 0:
        return str(a)
    radical = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    if a == 0:
        return radical if b > 0 else f"-{radical}"
    return f"{a} {'+' if b > 0 else '-'} {radical}"


def ref_decimal(x) -> str:
    """floor(a * 10^27) + floor(b * sqrt(d) * 10^27), rounded to 12 places."""
    a, b, d = x
    shift, guard = 10**27, 10**15
    total = (a * shift).numerator // (a * shift).denominator
    if b:
        u, w = abs((b * shift).numerator), (b * shift).denominator
        radical_floor = isqrt(u * u * d) // w
        if b > 0:
            total += radical_floor
        else:
            exact_root = u * u * d == (radical_floor * w) ** 2
            total -= radical_floor if exact_root else radical_floor + 1
    digits = (total + guard // 2) // guard
    int_part, frac_part = divmod(abs(digits), 10**12)
    return f"{'-' if digits < 0 else ''}{int_part}.{frac_part:012d}"


def check_against_reference(x: QuadExt, ref) -> None:
    """`x` reads as the triple `ref`, presents and hashes as the reference does,
    and stores ``(p + q*sqrt(d)) / n`` in lowest terms with ``n > 0`` and
    ``q == 0`` exactly when ``d == 0``."""
    assert (x.a, x.b, x.d) == ref
    assert x.n > 0 and gcd(x.p, x.q, x.n) == 1 and (x.q == 0) == (x.d == 0)
    assert (x.p, x.q) == (ref[0] * x.n, ref[1] * x.n)
    assert str(x) == ref_str(ref)
    assert repr(x) == f"QuadExt({ref[0]}, {ref[1]}, {ref[2]})"
    assert hash(x) == (hash(ref[0]) if ref[1] == 0 else hash(ref))
    assert x.is_rational is (ref[1] == 0)
    assert x.sign() == ref_sign(ref) and bool(x) is (ref_sign(ref) != 0)
    assert decimal_approx(x) == ref_decimal(ref)


# each operand drawn with the triple it stands for
quad_operands = st.tuples(rationals, rationals, st.sampled_from([0, 1, 2, 3, 5, 12, 18])).map(
    lambda t: (QuadExt(*t), ref_quad(*t)))
operands = st.one_of(
    st.integers(-6, 6).map(lambda k: (k, (Q(k), Q(0), 0))),
    rationals.map(lambda f: (f, (f, Q(0), 0))),
    quad_operands,
)


@given(quad_operands, operands, st.booleans())
@settings(max_examples=400, deadline=None)
def test_quadext_agrees_with_the_fraction_reference(x, y, flip):
    """Construction, ``+ - *``, negation, sign and order, hash and presentation
    equal the rules on Fraction triples, with an int, a Fraction or a QuadExt
    on either side of a QuadExt; radicands 12 and 18 reduce to 3 and 2."""
    check_against_reference(*x)
    check_against_reference(-x[0], ref_neg(x[1]))
    (u, ru), (v, rv) = (y, x) if flip else (x, y)
    ops = [lambda: u + v, lambda: u - v, lambda: u * v, lambda: u == v, lambda: u < v]
    try:
        ref_radicand(ru, rv)
    except MixedRadicandError:
        for op in ops:
            with pytest.raises(MixedRadicandError):
                op()
        return
    check_against_reference(u + v, ref_add(ru, rv))
    check_against_reference(u - v, ref_add(ru, ref_neg(rv)))
    check_against_reference(u * v, ref_mul(ru, rv))
    s = ref_sign(ref_add(ru, ref_neg(rv)))
    assert [u == v, u != v, u < v, u <= v, u > v, u >= v] == [
        s == 0, s != 0, s < 0, s <= 0, s > 0, s >= 0]


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


def _reference_inner(form, u, v):
    """The Fraction formula ``inner`` used before it paired in integers."""
    total = Q(0)
    for i, ui in enumerate(u):
        if ui:
            row = form.entries[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


form_entries = st.one_of(
    st.builds(Q, st.integers(min_value=-50, max_value=50), st.integers(1, 60)),
    st.integers(min_value=-(10**20), max_value=10**20),
)
vector_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.builds(Q, st.integers(min_value=-(10**15), max_value=10**15),
              st.integers(1, 10**12)),
)


def _draw_form(draw, r):
    lower = [[draw(form_entries) for _ in range(i + 1)] for i in range(r)]
    return symmetric_form(
        [[lower[max(i, j)][min(i, j)] for j in range(r)] for i in range(r)]
    )


@st.composite
def forms_and_vectors(draw):
    r = draw(st.integers(min_value=1, max_value=8))
    form = _draw_form(draw, r)
    vector = st.lists(vector_entries, min_size=r, max_size=r)
    return form, draw(vector), draw(vector)


@given(forms_and_vectors())
@settings(max_examples=200, deadline=None)
def test_inner_matches_the_fraction_formula(case):
    form, u, v = case
    value = inner(form, u, v)
    assert type(value) is Q
    assert value == _reference_inner(form, u, v)
    assert value == inner(form, as_vector(u), as_vector(v)) == inner(form, v, u)


def test_as_vector_keeps_a_tuple_of_fractions():
    vec = (Q(1, 2), Q(-3))
    assert as_vector(vec) is vec
    assert as_vector([Q(1, 2), Q(-3)]) == vec
    mixed = (Q(1, 2), -3)
    assert as_vector(mixed) == vec and as_vector(mixed) is not mixed
    assert all(type(x) is Q for x in as_vector(mixed))


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
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    # a zero leading entry where adding row and column 1 would keep it zero
    assert signature([[0, 1], [1, -2]]) == (1, 1, 0)
    assert signature([[2, 1], [1, 2]]) == (2, 0, 0)
    assert signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert signature([]) == (0, 0, 0)
    assert signature([[-2, 1, 1], [1, -2, 1], [1, 1, -2]]) == (0, 2, 1)


def test_negative_definite_examples():
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert is_negative_definite([[-1]])
    assert is_negative_definite([])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    # a zero pivot, first in the leading position, then in a later one
    assert not is_negative_definite([[0, 1], [1, -1]])
    assert not is_negative_definite([[-1, 1], [1, -1]])


def test_solve_symmetric_examples():
    g = symmetric_form([[-2, 1], [1, -2]])
    assert solve_symmetric(g, [-3, 0]) == (Q(2), Q(1))
    g2 = symmetric_form([[-2, 0], [0, -2]])
    assert solve_symmetric(g2, [-2, -4]) == (Q(1), Q(2))
    # any value Fraction() takes is a right-hand side entry
    assert solve_symmetric(g2, ["-1/2", Q(-4)]) == (Q(1, 4), Q(2))
    # an indefinite system is refused, not solved
    g3 = symmetric_form([[0, 1], [1, 0]])
    assert solve_symmetric(g3, [2, 3]) is None


def test_solve_symmetric_singular():
    assert solve_symmetric(symmetric_form([[1, 1], [1, 1]]), [1, 0]) is None
    with pytest.raises(DimensionMismatchError):
        solve_symmetric(symmetric_form([[1]]), [1, 2])


def _leibniz_determinant(rows) -> int:
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("n", range(7))
def test_solve_cleared_returns_the_scaled_solution_and_the_determinant(n):
    """On ``-(M^T M + I)``, negative definite, ``rows · z == det · b`` and ``det``
    is the determinant, positive for even sizes and negative for odd ones."""
    rng = random.Random(n)
    for _ in range(10):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [[-sum(m[k][i] * m[k][j] for k in range(n)) - (i == j) for j in range(n)]
                for i in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        z, det = solve_cleared(rows, b)
        assert all(type(v) is int for v in z)
        assert [dot(row, z) for row in rows] == [det * x for x in b]
        assert det == _leibniz_determinant(rows)
        assert (det > 0) == (n % 2 == 0)


@pytest.mark.parametrize("rows", [
    [[-1, 1], [1, -1]],  # singular
    [[-2, 2, 0], [2, -2, 0], [0, 0, -1]],  # singular at the second pivot
    [[-1, 2], [2, -1]],  # indefinite
    [[0, 1], [1, 0]],  # indefinite, zero leading entry
    [[3]],  # positive 1 x 1
    [[0]],
], ids=["singular", "singular-3", "indefinite", "indefinite-zero-pivot", "positive", "zero"])
def test_solve_cleared_refuses_what_is_not_negative_definite(rows):
    assert solve_cleared(rows, [1] * len(rows)) is None


def test_solve_symmetric_checks_the_length_before_the_solve():
    with pytest.raises(DimensionMismatchError):
        solve_symmetric(symmetric_form([[-2, 1], [1, -2]]), [1])
    assert solve_cleared([], []) == ((), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_symmetric_skips_the_last_schur_step(n, monkeypatch):
    steps = []

    def spy(*args, **kwargs):
        steps.append(args)
        return schur_complement(*args, **kwargs)

    monkeypatch.setattr(exact, "schur_complement", spy)
    g = symmetric_form([[-2 if i == j else int(abs(i - j) == 1) for j in range(n)]
                        for i in range(n)])
    x = solve_symmetric(g, list(range(1, n + 1)))
    assert [sum(g.entries[i][j] * x[j] for j in range(n)) for i in range(n)] == list(
        range(1, n + 1))
    assert len(steps) == n - 1


def _random_symmetric(rng: random.Random, n: int):
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return symmetric_form(rows)


def _reference_signature(form):
    """The Fraction congruence reduction that the integer `signature` replaced."""
    m = [list(row) for row in form.entries]
    plus = minus = zero = 0
    while m:
        k = len(m)
        if m[0][0] == 0:
            off = next((j for j in range(1, k) if m[0][j] != 0), None)
            if off is None:
                zero += 1
                m = [row[1:] for row in m[1:]]
                continue
            t = 1 if 2 * m[0][off] + m[off][off] else -1
            for c in range(k):
                m[0][c] += t * m[off][c]
            for row in m:
                row[0] += t * row[off]
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


def _sparse_symmetric(rng: random.Random, n: int):
    """Mostly zero entries, so zero pivots and zero rows are common."""
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return symmetric_form(rows)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_integer_signature_matches_the_fraction_reduction(seed, n):
    rng = random.Random(seed)
    for form in (_random_symmetric(rng, n), _sparse_symmetric(rng, n)):
        c = -Q(rng.randint(1, 7), rng.randint(1, 7))
        rescaled = symmetric_form([[c * x for x in row] for row in form.entries])
        plus, minus, zero = _reference_signature(form)
        assert signature(form.cleared[0]) == (plus, minus, zero)
        assert (signature(rescaled.cleared[0]) == _reference_signature(rescaled)
                == (minus, plus, zero))


def test_schur_complement_refuses_an_inexact_division():
    assert schur_complement([[3, 2], [2, 4]], 0, [1], 2) == [[4]]
    assert schur_complement([[3, 2], [2, 4]], 0, [1], 2, [8]) == [[4]]
    with pytest.raises(ArithmeticError):
        schur_complement([[1, 1], [1, 0]], 0, [1], 2)
    # a supplied diagonal numerator is divided and checked like the others
    with pytest.raises(ArithmeticError):
        schur_complement([[3, 2], [2, 4]], 0, [1], 2, [9])
    # an exact supplied diagonal leaves the off-diagonal check in place
    with pytest.raises(ArithmeticError):
        schur_complement([[1, 1, 0], [1, 1, 1], [0, 1, 0]], 0, [1, 2], 2, [0, 0])


def _step_by_entry(m, t, keep, prev):
    """The per-entry Bareiss formula over `keep`, asserting each division exact."""
    p, out = m[t][t], []
    for a in keep:
        row = []
        for b in keep:
            x = p * m[a][b] - m[a][t] * m[t][b]
            assert x % prev == 0
            row.append(x // prev)
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_schur_complement_matches_the_per_entry_formula(seed):
    """Stage after stage of one matrix, each over a random kept subset and the
    previous stage's pivot (1 at the first), so every division is exact; the
    same step with the diagonal numerators supplied gives the same matrix."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = rng.randint(-9, 9)
    prev = 1
    while m:
        t = rng.randrange(len(m))
        if m[t][t] == 0:
            break
        keep = sorted(rng.sample(range(len(m)), rng.randint(0, len(m))))
        out = schur_complement(m, t, keep, prev)
        assert out == _step_by_entry(m, t, keep, prev)
        diag = [m[t][t] * m[a][a] - m[a][t] ** 2 for a in keep]
        assert schur_complement(m, t, keep, prev, diag) == out
        assert out == [list(col) for col in zip(*out)]
        prev, m = m[t][t], out


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
    assert signature(form.cleared[0]) == signature(conjugated.cleared[0])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_negative_definite_agrees_with_signature(seed, n):
    """Two independent code paths must agree on definiteness."""
    rng = random.Random(seed)
    form = _random_symmetric(rng, n)
    assert is_negative_definite(form.cleared[0]) == (_reference_signature(form) == (0, n, 0))


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
    assert is_negative_definite(g.cleared[0])
    keep = sorted(rng.sample(range(n), rng.randint(1, n)))
    sub = symmetric_form([[rows[i][j] for j in keep] for i in keep])
    assert is_negative_definite(sub.cleared[0])


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


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_solve_symmetric_solves_exactly_the_negative_definite_systems(seed, n):
    rng = random.Random(seed)
    g = _random_symmetric(rng, n)
    rhs = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    x = solve_symmetric(g, rhs)
    assert (x is None) == (not is_negative_definite(g.cleared[0]))
    if x is not None:
        for i in range(n):
            assert sum(g.entries[i][j] * x[j] for j in range(n)) == rhs[i]


def _congruent_diagonal(rng: random.Random, diag):
    """``U^T D U`` for ``D = diag(diag)`` and a random unit upper triangular
    rational ``U``: its k-th leading principal minor is ``diag[0] * ... * diag[k-1]``."""
    n = len(diag)
    u = [
        [Q(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else Q(int(i == j))
         for j in range(n)]
        for i in range(n)
    ]
    return symmetric_form(
        [
            [sum(u[l][i] * diag[l] * u[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )


def _elimination_cases(rng: random.Random, n: int):
    """Rank-`n` forms with rational entries that reach every exit of the
    elimination: random and sparse ones (mostly indefinite, often with zero
    pivots), negative definite ones, ones whose leading minors fail only at
    the last pivot (zero or of the wrong sign), ones with a zero leading
    entry, and singular semidefinite Grams of fewer than `n` vectors."""
    yield _random_symmetric(rng, n)
    yield _sparse_symmetric(rng, n)
    neg = [-Q(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n)]
    definite = _congruent_diagonal(rng, neg)
    yield definite
    if n:
        yield _congruent_diagonal(rng, neg[:-1] + [Q(0)])
        yield _congruent_diagonal(rng, neg[:-1] + [Q(rng.randint(1, 5), rng.randint(1, 4))])
        rows = [list(row) for row in definite.entries]
        rows[0][0] = Q(0)
        yield symmetric_form(rows)
        m = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(rng.randint(0, n - 1))]
        yield symmetric_form(
            [[-sum(row[i] * row[j] for row in m) for j in range(n)] for i in range(n)]
        )


@pytest.mark.parametrize("n", range(8))
def test_one_elimination_matches_the_reference_reduction(n):
    """`is_negative_definite` agrees with the test-side Fraction reduction, and
    `solve_symmetric` solves, with Fractions, exactly the negative definite
    systems, for integer and rational right-hand sides."""
    rng = random.Random(n)
    for _ in range(25):
        for g in _elimination_cases(rng, n):
            definite = _reference_signature(g) == (0, n, 0)
            assert is_negative_definite(g.cleared[0]) == definite
            for rhs in (
                [rng.randint(-5, 5) for _ in range(n)],
                [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)],
            ):
                x = solve_symmetric(g, rhs)
                assert (x is None) == (not definite)
                if x is not None:
                    assert all(type(v) is Q for v in x)
                    for i in range(n):
                        assert sum(g.entries[i][j] * x[j] for j in range(n)) == rhs[i]


def test_gram_matrix():
    q = symmetric_form([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    vecs = [as_vector([0, 1, 0]), as_vector([0, 0, 1])]
    g = gram_matrix(q, vecs)
    assert g.entries == ((Q(-2), Q(1)), (Q(1), Q(-2)))
    assert gram_matrix(q, []).entries == ()
    with pytest.raises(DimensionMismatchError):
        gram_matrix(q, [vecs[0], as_vector([1, 0])])


@st.composite
def forms_and_families(draw):
    """A form as in :func:`forms_and_vectors` and up to five vectors, zero
    vectors among them, whose entries have different denominators."""
    r = draw(st.integers(min_value=1, max_value=6))
    form = _draw_form(draw, r)
    vector = st.one_of(
        st.just((Q(0),) * r),
        st.lists(st.one_of(rationals, vector_entries), min_size=r, max_size=r),
    )
    return form, draw(st.lists(vector, max_size=5))


@given(forms_and_families())
@settings(max_examples=200, deadline=None)
def test_gram_matrix_is_the_pairwise_inner_gram(case):
    """Clearing each vector once leaves every entry the Fraction `inner` gives."""
    form, family = case
    entries = gram_matrix(form, family).entries
    assert entries == tuple(tuple(inner(form, u, v) for v in family) for u in family)
    assert all(type(x) is Q for row in entries for x in row)
