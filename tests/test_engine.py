"""Decomposition engine: frozen examples, failure modes, and invariants."""
from __future__ import annotations

import inspect
import pickle
import random
import sys
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zariski import (
    Certificate,
    ConeModel,
    Decomposition,
    DimensionMismatchError,
    InternalInconsistencyError,
    InvalidModelError,
    NotPseudoEffectiveError,
    OracleUniquenessError,
    brute_force_decompose,
    cone_model,
    decompose,
    decomposition_to_json,
    del_pezzo,
    enumerate_exceptional_families,
    load_model,
    verify_certificate,
    volume,
)
from zariski import engine
from zariski.exact import (as_vector, clear_denominators, combine, describe, gram_matrix, inner,
                           solve_symmetric)

from conftest import is_exceptional_family, orthogonal_sets, vec_add, vec_scale

DATA = Path(__file__).parent / "data"


# -- frozen worked examples ------------------------------------------------


def test_rank2_single_prime_example(s1):
    d = decompose(s1, [1, 2])
    assert d.alpha == as_vector([1, 2])
    assert d.positive_part == as_vector([1, 0])
    assert d.negative_coeffs == {"E": Q(2)}
    assert d.support == ("E",)
    assert d.iterations == 1
    assert d.certificate.all_passed


def test_rank3_chain_example_grows_twice(s2):
    d = decompose(s2, [1, 2, 1])
    assert d.positive_part == as_vector([1, 0, 0])
    assert d.negative_coeffs == {"c1": Q(2), "c2": Q(1)}
    assert d.support == ("c1", "c2")
    assert d.iterations == 2
    assert d.certificate.all_passed


def test_dual_nef_input_is_its_own_positive_part(s1):
    for alpha in ([1, 0], [1, -1], [0, 0]):
        d = decompose(s1, alpha)
        assert d.positive_part == as_vector(alpha)
        assert d.negative_coeffs == {}
        assert d.support == ()
        assert d.iterations == 1


def test_boundary_class_decomposes(s1):
    d = decompose(s1, [1, 1])
    assert d.positive_part == as_vector([1, 0])
    assert d.negative_coeffs == {"E": Q(1)}


def test_not_pseudo_effective_outside_positive_cone(s1):
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(s1, [-1, 0])
    assert err.value.reason == "positive-cone-closure"
    assert err.value.detail == {"q_self": Q(1), "q_h": Q(-1)}


def test_refusal_detail_past_the_digit_limit_is_still_a_refusal(s1):
    # q_self has 5000 digits, past the interpreter's int-to-str limit
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(s1, [-int("7" * 2500), 0])
    assert err.value.reason == "positive-cone-closure"


def test_not_pseudo_effective_degenerate_gram():
    model = cone_model([[1, 0], [0, -1]], {"F": [1, 1]}, [1, 0])
    assert model.validate().ok
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(model, [0, 1])
    assert err.value.reason == "gram-not-negative-definite"
    assert err.value.detail == {"subset": ("F",)}


def test_results_are_lean(s1):
    alpha = (Q(1), Q(2))
    d = decompose(s1, alpha)
    assert d.alpha is alpha
    nef = (Q(1), Q(0))  # no round runs, so the positive part is the class itself
    assert decompose(s1, nef).positive_part is nef
    assert not hasattr(d, "__dict__")
    assert d.certificate is Decomposition.certificate
    assert isinstance(d.certificate, tuple)
    assert not hasattr(d.certificate, "__dict__")
    assert [f.name for f in fields(Decomposition)] == [
        "alpha", "positive_part", "negative_coeffs", "iterations"]


def test_support_is_read_from_the_coefficients(s1):
    assert "support" not in {f.name for f in fields(Decomposition)}
    d = replace(decompose(s1, [1, 2]), negative_coeffs={"E": Q(0), "F": Q(1), "G": Q(2)})
    assert d.support == ("F", "G")


def test_refusals_are_lean():
    model = cone_model([[1, 0], [0, -1]], {"F": [1, 1]}, [1, 0])
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(model, [-1, 0])
    exc = err.value
    assert exc.reason == "gram-not-negative-definite"
    assert exc.detail == {"subset": ("F",)}
    assert str(exc) == "gram-not-negative-definite (subset=('F',))"
    assert exc.__dict__ == {}


@pytest.mark.parametrize("prime, reason", [([0, 1], "positive-cone-closure"),
                                           ([1, 1], "gram-not-negative-definite")])
def test_refusals_survive_pickle(prime, reason):
    model = cone_model([[1, 0], [0, -1]], {"F": prime}, [1, 0])
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(model, [-1, 0])
    exc = err.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NotPseudoEffectiveError
    assert back.reason == exc.reason == reason
    assert back.detail == exc.detail != {}
    assert str(back) == str(exc)
    assert back.__dict__ == {}


@pytest.mark.parametrize("prime, reason", [([0, 1], "positive-cone-closure"),
                                           ([1, 1], "gram-not-negative-definite")])
def test_refusal_traceback_ends_in_decompose(prime, reason):
    model = cone_model([[1, 0], [0, -1]], {"F": prime}, [1, 0])
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose(model, [-1, 0])
    assert err.value.reason == reason
    tb = err.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code is engine.decompose.__code__
    assert not {"active", "coeffs", "current"} & set(tb.tb_frame.f_locals)


def test_dimension_mismatch_rejected(s1):
    with pytest.raises(DimensionMismatchError):
        decompose(s1, [1, 2, 3])


# -- volume and bigness -------------------------------------------------------


def test_volume_examples(s1, s2):
    assert volume(s2, [1, 0, 0]) == Q(2)
    assert volume(s2, [1, 2, 1]) == Q(2)
    assert volume(s1, [1, 2]) == Q(1)
    assert volume(s1, [0, 1]) == Q(0)  # positive part collapses to zero


def test_volume_uses_exponent():
    model = cone_model(
        [[2, 0, 0], [0, -2, 1], [0, 1, -2]],
        [("c1", [0, 1, 0]), ("c2", [0, 0, 1])],
        [1, 0, 0],
        m=2,
    )
    assert volume(model, [1, 2, 1]) == Q(4)


def test_volume_refuses_a_power_past_the_digit_limit():
    model = load_model(DATA / "s1_huge_m.json")  # m = 10**12
    with pytest.raises(OverflowError, match="more than"):
        volume(model, [3, 1])  # q(Z, Z) = 9
    assert volume(model, [1, 0]) == 1


def test_volume_digit_guard_boundary():
    """``3 * (bits - 1) * m >= 10 * limit`` refuses the power.

    At the 4300-digit limit, q(Z, Z) = 2**14332 passes (3 * 14332 < 43000)
    and 2**14334 does not (3 * 14334 >= 43000).
    """
    model = cone_model([[1]], {}, [1])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert volume(model, [2**7166]) == 2**14332
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            volume(model, [2**7167])
    finally:
        sys.set_int_max_str_digits(limit)


def test_volume_vanishes_off_the_big_cone(s1):
    assert volume(s1, [1, 2]) == 1
    assert volume(s1, [0, 1]) == 0  # positive part is zero
    assert volume(s1, [1, -1]) == 0  # positive part is isotropic


# -- exceptional families ----------------------------------------------------


def test_exceptional_family_membership(s2, affine_a2):
    assert is_exceptional_family(s2, [])
    assert is_exceptional_family(s2, ["c1"])
    assert is_exceptional_family(s2, ["c1", "c2"])
    assert is_exceptional_family(affine_a2, ["c1", "c3"])
    assert not is_exceptional_family(affine_a2, ["c1", "c2", "c3"])


def test_enumerate_families_rank3_chain(s2):
    assert enumerate_exceptional_families(s2) == [
        (),
        ("c1",),
        ("c1", "c2"),
        ("c2",),
    ]


def test_enumerate_families_cyclic_triple_excluded(affine_a2):
    fams = enumerate_exceptional_families(affine_a2)
    assert len(fams) == 7
    assert ("c1", "c2", "c3") not in fams
    assert ("c1", "c3") in fams and ("c2", "c3") in fams


def test_enumerate_families_max_size_clamps(affine_a2, pool):
    assert enumerate_exceptional_families(affine_a2, max_size=0) == [()]
    singles = enumerate_exceptional_families(affine_a2, max_size=1)
    assert singles == [(), ("c1",), ("c2",), ("c3",)]
    assert enumerate_exceptional_families(
        affine_a2, max_size=99
    ) == enumerate_exceptional_families(affine_a2)
    grid_sample = [model for _, model, _ in pool[::10]]
    for model in (affine_a2, del_pezzo(5), del_pezzo(6), *grid_sample):
        families = enumerate_exceptional_families(model)
        for cap in range(-1, model.rank + 2):
            assert enumerate_exceptional_families(model, max_size=cap) == [
                f for f in families if len(f) <= max(cap, 0)
            ]


def naive_families(model) -> list[tuple[str, ...]]:
    """Every prime subset up to the rank that passes `is_exceptional_family`,
    in the lexicographic order of prime indices."""
    names = model.prime_names()
    subsets = [
        s
        for size in range(model.rank + 1)
        for s in combinations(range(len(names)), size)
        if is_exceptional_family(model, [names[i] for i in s])
    ]
    return [tuple(names[i] for i in s) for s in sorted(subsets)]


@pytest.mark.parametrize("source", ["ten_primes", 1, 2, 3, 4])
def test_enumerate_families_matches_naive_filter(source, request):
    model = request.getfixturevalue(source) if source == "ten_primes" else del_pezzo(source)
    naive = naive_families(model)
    assert enumerate_exceptional_families(model) == naive
    if source == "ten_primes":
        assert len(naive) == 27  # 1 empty + 6 singletons + 12 pairs + 8 triples


def test_the_walk_takes_only_schur_steps_it_reads(monkeypatch, pool):
    """A step is taken only for two or more kept primes and a grown family at
    least two short of the cap; every other step's complement is never
    tested.  The lists match the independent references under every cap."""
    models = [(m, orthogonal_sets(m)) for m in map(del_pezzo, range(4, 8))]
    models += [(m, naive_families(m)) for _, m, _ in pool]
    real = engine.schur_complement
    made, steps = {}, []

    def spy(m, t, keep, prev, diag=None):
        # the walk's own top matrix belongs to the empty family, and a step's
        # result to a family one prime longer than its input's; `made` holds
        # every result, so no id is reused within a walk
        grown = made[id(m)][1] + 1 if id(m) in made else 1
        steps.append((len(keep), grown))
        out = real(m, t, keep, prev, diag)
        made[id(out)] = (out, grown)
        return out

    monkeypatch.setattr(engine, "schur_complement", spy)
    for model, families in models:
        for cap in range(model.rank + 1):
            made.clear()
            steps.clear()
            listed = enumerate_exceptional_families(model, max_size=cap)
            assert listed == [f for f in families if len(f) <= cap]
            assert all(kept >= 2 and grown <= cap - 2 for kept, grown in steps)


def test_enumerate_families_skips_a_prime_of_square_zero():
    """On F_1 the fibre f = H - E has f**2 = 0, so no family holds it."""
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1], "f": [1, -1]}, [2, -1])
    assert model.validate().ok
    assert enumerate_exceptional_families(model) == [(), ("E",)]


def test_enumerate_families_ignores_positive_rescaling(pool):
    """Fraction Grams (form/6, primes/3) give the same walk as integer ones."""
    for _, model, _ in pool:
        families = enumerate_exceptional_families(model)
        assert families == naive_families(model)
        scaled = cone_model(
            [[x / 6 for x in row] for row in model.form.entries],
            [(p.name, [x / 3 for x in p.vec]) for p in model.primes],
            model.h,
        )
        assert enumerate_exceptional_families(scaled) == families


# -- verification of externally supplied data --------------------------------


def test_verify_certificate_flags_tampered_orthogonality(s1):
    cert, violations = verify_certificate(
        s1, as_vector([1, 2]), as_vector([1, 1]), {"E": Q(1)}
    )
    assert not cert.orthogonality_checked
    assert not cert.all_passed
    assert any("orthogonality violated" in v for v in violations)


def test_verify_certificate_flags_negative_coefficient(s1):
    cert, violations = verify_certificate(
        s1, as_vector([1, -1]), as_vector([1, 0]), {"E": Q(-1)}
    )
    assert not cert.effectivity_checked
    assert any("negative coefficients" in v for v in violations)


def test_verify_certificate_reports_a_coefficient_past_the_digit_limit(s1):
    """The negative-coefficient message is built with `describe`, so a
    coefficient too long for ``str`` is reported by its size, not raised."""
    c = Q(-(10**4400))
    cert, violations = verify_certificate(s1, (1, 2), (1, 2 - c), {"E": c})
    assert not cert.effectivity_checked
    assert any(
        "negative coefficients" in v and "<a number of" in v for v in violations
    )


def test_verify_certificate_flags_unknown_prime(s1):
    _, violations = verify_certificate(
        s1, as_vector([1, 0]), as_vector([1, 0]), {"ghost": Q(1)}
    )
    assert any("unknown prime" in v for v in violations)


def test_verify_certificate_counts_an_unknown_primes_coefficient_against_effectivity(s1):
    cert, violations = verify_certificate(s1, (1, 0), (1, 0), {"ghost": Q(-1)})
    assert cert == Certificate(True, True, False, True)
    assert violations == ["unknown prime 'ghost' in negative part",
                          "negative part has negative coefficients: {'ghost': '-1'}"]


def test_verify_certificate_names_only_the_negative_coefficients(s2):
    cert, violations = verify_certificate(s2, (0, -1, 0), (0, 0, 0),
                                          {"c1": Q(-1), "c2": Q(0)})
    assert cert == Certificate(True, True, False, True)
    assert violations == ["negative part has negative coefficients: {'c1': '-1'}"]


def test_verify_certificate_flags_failed_reconstruction(affine_a2):
    _, violations = verify_certificate(
        affine_a2, as_vector([0, 0, 1, 1]), as_vector([0, 0, 0, 1]),
        {"c1": Q(1), "c2": Q(1)},
    )
    assert any("reconstruction failed" in v for v in violations)


def test_verify_certificate_flags_a_class_with_its_own_denominator(s1):
    """The common denominator of the identity includes alpha's own: here neither
    the positive part nor the (empty) negative part has the class's 7."""
    cert, violations = verify_certificate(s1, (Q(1, 7), 0), (0, 0), {})
    assert cert.all_passed
    assert violations == ["reconstruction failed: positive part plus negative part "
                          "does not equal the input class"]


def test_verify_certificate_reads_support_from_positive_coefficients(affine_a2):
    """A negative coefficient is a failed effectivity, and its prime stays out of the
    support: c1, c2 alone are negative definite, with c3 they are singular."""
    cert, violations = verify_certificate(
        affine_a2, as_vector([-1, 0, 2, 2]), as_vector([0, 0, 0, 0]),
        {"c1": Q(1), "c2": Q(1), "c3": Q(-1)},
    )
    assert cert == Certificate(True, True, False, True)
    assert violations == ["negative part has negative coefficients: {'c3': '-1'}"]


def test_verify_certificate_reads_support_below_one(affine_a2):
    """Coefficients 1/2 on the singular cycle c1 + c2 + c3 put all three in the support."""
    cert, violations = verify_certificate(
        affine_a2, as_vector([Q(1, 2), 0, 0, 0]), as_vector([0, 0, 0, 0]),
        {"c1": Q(1, 2), "c2": Q(1, 2), "c3": Q(1, 2)},
    )
    assert not cert.gram_negative_definite_checked
    assert violations == ["support Gram matrix is not negative definite"]


def test_verify_certificate_accepts_a_zero_coefficient(affine_a2):
    """A zero coefficient is effective and leaves its prime out of the support."""
    cert, violations = verify_certificate(
        affine_a2, as_vector([0, 0, 1, 1]), as_vector([0, 0, 0, 0]),
        {"c1": Q(1), "c2": Q(1), "c3": Q(0)},
    )
    assert cert.all_passed
    assert violations == []


def test_verify_certificate_clean_result_has_no_violations(s2):
    d = decompose(s2, [1, 2, 1])
    cert, violations = verify_certificate(
        s2, d.alpha, d.positive_part, d.negative_coeffs
    )
    assert cert.all_passed
    assert violations == []


def _negative_definite(rows) -> bool:
    """Gaussian elimination without pivoting: all pivots negative (Sylvester)."""
    m = [list(row) for row in rows]
    for k, pivot_row in enumerate(m):
        if pivot_row[k] >= 0:
            return False
        for row in m[k + 1:]:
            f = row[k] / pivot_row[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot_row[k:])]
    return True


def _reference_verify(model, alpha, positive_part, negative_coeffs):
    """`verify_certificate` in plain Fraction arithmetic: each invariant from
    its definition, in the order and with the wording of the real checks.  A class or
    positive part of the wrong length raises before any check."""
    vec_of = model.prime_vec
    if len(alpha) != model.rank or len(positive_part) != model.rank:
        raise DimensionMismatchError("a vector's length is not the rank")

    def image(u):  # Q·u, entry by entry
        return [sum((x * y for x, y in zip(row, u) if y), Q(0)) for row in model.form.entries]

    def pair(image_u, v):  # q(u, v)
        return sum((x * y for x, y in zip(image_u, v) if y), Q(0))

    violations = [f"unknown prime '{n}' in negative part"
                  for n in negative_coeffs if n not in vec_of]
    usable = {n: c for n, c in negative_coeffs.items() if n in vec_of}
    rebuilt = tuple(alpha)
    for n, c in usable.items():
        if c:
            rebuilt = tuple(x - c * y for x, y in zip(rebuilt, vec_of[n], strict=True))
    if rebuilt != tuple(positive_part):
        violations.append("reconstruction failed: positive part plus negative part "
                          "does not equal the input class")
    qz = image(positive_part)
    pairings = {n: pair(qz, vec_of[n]) for n in usable}
    violations += [f"orthogonality violated: q(positive_part, {n}) = {describe(x)}"
                   for n, x in pairings.items() if x]
    support = [vec_of[n] for n, c in usable.items() if c > 0]
    negdef = _negative_definite([[pair(qu, v) for v in support] for qu in map(image, support)])
    if not negdef:
        violations.append("support Gram matrix is not negative definite")
    effective = all(c >= 0 for c in negative_coeffs.values())
    if not effective:
        bad = {n: describe(c) for n, c in negative_coeffs.items() if c < 0}
        violations.append(f"negative part has negative coefficients: {bad}")
    dual_nef = (pair(qz, model.h) >= 0 and pair(qz, positive_part) >= 0
                and all(pair(qz, p.vec) >= 0 for p in model.primes))
    if not dual_nef:
        violations.append("positive part is not dual-nef")
    certificate = Certificate(not any(pairings.values()), negdef, effective, dual_nef)
    return certificate, violations


def _tampered(model, alpha, positive, coeffs, s):
    """The result itself, then one tampering of each kind: a positive entry
    plus `s`, a coefficient plus `s`, a negative coefficient, an unknown
    prime, a zero-coefficient prime and a positive part outside the closed
    cone."""
    yield alpha, positive, coeffs
    i = next((k for k, x in enumerate(positive) if x), 0)
    yield alpha, tuple(x + s if k == i else x for k, x in enumerate(positive)), coeffs
    for name in [*coeffs, *model.prime_names()][:1]:
        yield alpha, positive, {**coeffs, name: coeffs.get(name, 0) + s}
        yield alpha, positive, {**coeffs, name: Q(-1)}
    yield alpha, positive, {**coeffs, "ghost": Q(1)}
    spare = [p.name for p in model.primes if p.name not in coeffs]
    if spare:
        yield alpha, positive, {**coeffs, spare[0]: Q(0)}
    yield alpha, tuple(-x for x in model.h), coeffs


def test_verify_certificate_matches_the_fraction_reference(pool, pool_decompositions):
    """Same certificate, same violations in the same order and wording; the
    tampering adds 1 on even cases and -1 on odd ones.  After the pool's own
    decompositions come those of the first 50 pool models rescaled, whose form,
    primes and ``h`` have denominators above 1, so an orthogonality value that
    drops ``scale`` or a prime's denominator differs from the reference."""
    rescaled = [(model, alpha, decompose(model, alpha))
                for model, classes in ((_rescaled(m), c) for _, m, c in pool[:50])
                for alpha in classes]
    kinds = Counter()
    for k, (model, alpha, d) in enumerate(pool_decompositions + rescaled):
        s = (-1) ** k
        for case in _tampered(model, alpha, d.positive_part, dict(d.negative_coeffs), s):
            got = verify_certificate(model, *case)
            assert got == _reference_verify(model, *case)
            kinds.update(v.split(":")[0].split(" '")[0] for v in got[1])
    # every kind of violation but the support's is met here; the next test has it
    assert set(kinds) == {
        "unknown prime", "reconstruction failed", "orthogonality violated",
        "negative part has negative coefficients", "positive part is not dual-nef",
    }


def test_verify_certificate_matches_the_reference_on_oversize_supports():
    """`rank` primes from an active set that del Pezzo r = 7 refused for its
    size: in signature (1, r - 1) they are never negative definite."""
    model = del_pezzo(7)
    rng = random.Random(7)
    subsets = []
    while len(subsets) < 3:
        try:
            decompose(model, [rng.randint(-4, 4) for _ in range(model.rank)])
        except NotPseudoEffectiveError as exc:
            if len(subset := exc.detail.get("subset", ())) >= model.rank:
                subsets.append(subset[:model.rank])
    for subset in subsets:
        coeffs = {n: Q(1, 2) for n in subset}
        alpha = model.h
        for n in subset:
            alpha = vec_add(alpha, vec_scale(Q(1, 2), model.prime_vec[n]))
        cert, violations = verify_certificate(model, alpha, model.h, coeffs)
        assert not cert.gram_negative_definite_checked
        assert "support Gram matrix is not negative definite" in violations
        for s in (1, -1):
            for case in _tampered(model, alpha, model.h, coeffs, s):
                assert verify_certificate(model, *case) == _reference_verify(model, *case)


def test_verify_certificate_raises_on_wrong_lengths_as_the_reference(s2):
    """A class or positive part that is short or long raises
    `DimensionMismatchError` before any check, whatever the coefficients."""
    d = decompose(s2, [1, 2, 1])
    a, z, c = d.alpha, d.positive_part, dict(d.negative_coeffs)
    cases = [
        (a[:-1], z, c),
        (a[:-1], z[:-1], c),
        (a, z[:-1], c),
        (a, z[:-1], {}),
        (a[:-1], z[:-1], {}),
        (a + (Q(0),), z, {}),
        (a + (Q(0),), z, c),
        (a[:-1], z, {"c1": Q(0)}),
        (a, z + (Q(0),), c),
        (a, z + (Q(0),), {"ghost": Q(-1)}),
    ]
    for alpha, positive, coeffs in cases:
        for verify in (verify_certificate, _reference_verify):
            with pytest.raises(DimensionMismatchError) as info:
                verify(s2, alpha, positive, coeffs)
            assert type(info.value) is DimensionMismatchError


# -- exhaustive oracle ---------------------------------------------------------


def assert_oracle_agrees(model, alpha, d):
    b = brute_force_decompose(model, alpha)
    assert b.iterations == 0
    assert b.positive_part == d.positive_part
    assert dict(b.negative_coeffs) == {
        n: c for n, c in d.negative_coeffs.items() if c > 0
    }


def test_oracle_matches_engine_on_examples(s1, s2):
    for model, alpha in ((s1, [1, 2]), (s1, [3, 1]), (s2, [1, 2, 1]), (s2, [2, 1, 0])):
        assert_oracle_agrees(model, alpha, decompose(model, alpha))


def test_oracle_rejects_non_pseudo_effective(s1):
    with pytest.raises(NotPseudoEffectiveError) as err:
        brute_force_decompose(s1, [-1, 0])
    assert err.value.reason == "exhaustive-no-candidate"


def test_oracle_matches_engine_on_del_pezzo():
    """10, 16 and 27 primes; classes a(-K) + sum c E over 1 to 4 primes,
    drawn as the benchmark's delpezzo workload draws them."""
    rng = random.Random(1)
    for r, count in ((4, 4), (5, 3), (6, 1)):
        model = del_pezzo(r)
        for k in range(count):
            alpha = vec_scale(Q(rng.randint(0, 4), rng.randint(1, 3)), model.h)
            for prime in rng.sample(model.primes, 1 + k % 4):
                c = Q(rng.randint(1, 4), rng.randint(1, 3))
                alpha = vec_add(alpha, vec_scale(c, prime.vec))
            assert_oracle_agrees(model, alpha, decompose(model, alpha))


def a_n_lattice(n: int, h) -> ConeModel:
    """``I_{1,n+1}`` with the primes ``C_i = E_i - E_{i+1}``, i = 1..n."""
    rank = n + 2
    form = [[int(i == j) * (1 if i == 0 else -1) for j in range(rank)] for i in range(rank)]
    chain = [(f"C{i}", [int(k == i) - int(k == i + 1) for k in range(rank)])
             for i in range(1, n + 1)]
    return cone_model(form, chain, h)


def a_n_chain(n: int):
    """``C_i = E_i - E_{i+1}`` in ``I_{1,n+1}`` with ``h = (4n, -(n+1), ..., -1)``,
    and the class ``10n e_0 + sum c_i C_i`` whose pairings with the chain are
    ``(-3, 1/100, ..., 1/100)``."""
    model = a_n_lattice(n, [4 * n] + [-k for k in range(n + 1, 0, -1)])
    targets = [Q(-3)] + [Q(1, 100)] * (n - 1)
    coeffs = solve_symmetric(gram_matrix(model.form, [p.vec for p in model.primes]), targets)
    alpha = vec_scale(10 * n, as_vector([1] + [0] * (n + 1)))
    for c, p in zip(coeffs, model.primes):
        alpha = vec_add(alpha, vec_scale(c, p.vec))
    assert [inner(model.form, alpha, p.vec) for p in model.primes] == targets
    return model, alpha


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_n_chain_takes_one_round_per_curve(n):
    """Each round the residual turns negative on the next curve of the chain
    only, so the active set grows by one prime per round (Bauer 2009)."""
    model, alpha = a_n_chain(n)
    d = decompose(model, alpha)
    assert d.iterations == n
    assert d.support == model.prime_names()
    assert_oracle_agrees(model, alpha, d)


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_a_n_chain_closed_form(n, t):
    """``alpha = 3(n+1) e_0 - t E_{n+1}`` on the chain ``C_i = E_i - E_{i+1}`` of
    ``I_{1,n+1}``: the negative part is ``sum t*i/(n+1) C_i``, which leaves
    ``Z = 3(n+1) e_0 - t/(n+1) sum E_k`` orthogonal to every curve, reached in
    one round per curve."""
    model = a_n_lattice(n, [3 * (n + 1)] + list(range(1, n + 2)))
    d = decompose(model, [3 * (n + 1)] + [0] * n + [-t])
    assert d.iterations == n
    assert d.negative_coeffs == {f"C{i}": Q(t * i, n + 1) for i in range(1, n + 1)}
    assert d.positive_part == as_vector([3 * (n + 1)] + [Q(-t, n + 1)] * (n + 1))


def test_oversize_active_sets_are_refused_before_any_gram(monkeypatch):
    """In signature (1, r - 1) no family of r or more primes is negative definite,
    so such an active set is refused without a Gram or a solve; on arbitrary
    integer classes at del Pezzo r = 7 most refusals are of that kind."""
    model = del_pezzo(7)
    sizes = []
    solve = engine.solve_cleared

    def spy(rows, b):
        sizes.append(len(b))
        return solve(rows, b)

    monkeypatch.setattr(engine, "solve_cleared", spy)
    rng = random.Random(7)
    oversize = []
    for _ in range(20):
        alpha = as_vector(rng.randint(-4, 4) for _ in range(model.rank))
        try:
            decompose(model, alpha)
        except NotPseudoEffectiveError as exc:
            subset = exc.detail.get("subset", ())
            if len(subset) >= model.rank:
                assert exc.reason == "gram-not-negative-definite"
                oversize.append(subset)
    assert sizes and max(sizes) < model.rank
    assert len(oversize) >= 10
    monkeypatch.undo()
    assert not any(is_exceptional_family(model, subset) for subset in oversize)


def test_the_loop_builds_no_fraction_gram(s1, pool, monkeypatch):
    """`decompose` reads only ``model.compiled``: each round of the loop is one
    integer solve on a principal submatrix of ``compiled.gram``, and neither the
    loop, a closure refusal, the certificate nor a result's JSON document (its
    volume included) runs the Fraction Gram, its solve or `inner`.  Inputs: the
    A_8 chain, a closure refusal on `s1` and the classes of the first 50 pool
    models rescaled."""
    model, alpha = a_n_chain(8)
    cases = [(s1, as_vector([-1, 0]))]
    cases += [(_rescaled(m), a) for _, m, classes in pool[:50] for a in classes]

    def refuse(*args):
        raise AssertionError("decompose called a Fraction Gram, solve or pairing")

    def outcomes():
        for m, a in cases:
            try:
                d = decompose(m, a)
                yield d.positive_part, d.negative_coeffs, decomposition_to_json(m, d)
            except NotPseudoEffectiveError as exc:
                yield exc.reason, exc.detail

    solves = []
    solve = engine.solve_cleared

    def spy(rows, b):
        solves.append(len(b))
        return solve(rows, b)

    for name in ("gram_matrix", "solve_symmetric", "inner"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(engine, "solve_cleared", spy)
    d = decompose(model, alpha)
    assert d.iterations == 8 and solves == list(range(1, 9))
    guarded = list(outcomes())
    assert guarded[0] == ("positive-cone-closure", {"q_self": Q(1), "q_h": Q(-1)})
    # a failed certificate's orthogonality value comes off the integers as well
    assert verify_certificate(s1, (1, 2), (1, 1), {"E": Q(1)})[1] == [
        "orthogonality violated: q(positive_part, E) = -1", "positive part is not dual-nef"]
    monkeypatch.undo()
    assert guarded == list(outcomes())
    assert (d.positive_part, d.negative_coeffs) == engine._active_set(model, alpha)[:2]


def test_the_loop_clears_each_class_once(pool, monkeypatch):
    """One `decompose`, certificate included, clears alpha once, scans it and each
    round's residual once, which `_project_primes` forms already cleared, and takes
    the last one's closure pairings once: one clear and ``rounds + 1`` scans, 1 and
    9 for the A_8 chain's 8 rounds, and the same identity over the 1000 pool classes."""
    calls = Counter()

    def spy(owner, name):
        wrapped = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_cleared", "_pairings", "_closure_pairings", "in_positive_cone_closure"):
        spy(ConeModel, name)
    spy(engine, "_project_primes")
    assert not hasattr(engine, "clear_denominators")
    assert decompose(*a_n_chain(8)).iterations == 8
    assert calls == {"_cleared": 1, "_pairings": 9, "_closure_pairings": 1, "_project_primes": 8}
    calls.clear()
    for _, model, classes in pool:
        for alpha in classes:
            decompose(model, alpha)
    assert calls == {"_cleared": 1000, "_pairings": 1569, "_closure_pairings": 1000,
                     "_project_primes": 569}


def test_a_wrong_coefficient_fails_the_certificate_against_alpha(s2, pool, monkeypatch):
    """A projection whose residual is right but one of whose coefficients is off by
    one leaves the loop nothing to object to: the residual still pairs to zero with
    every active prime.  The certificate's reconstruction, an identity against the
    raw alpha, refuses each such result: the loop's output is not taken on its word."""
    project = engine._project_primes
    wrong = []

    def mutant(model, a, *args):
        if (out := project(model, a, *args)) is None:
            return None
        wrong.append(a)
        return (out[0][0] + 1, *out[0][1:]), *out[1:]

    monkeypatch.setattr(engine, "_project_primes", mutant)
    cases = [(s2, as_vector([1, 0, -1])), a_n_chain(8)]
    cases += [(model, alpha) for _, model, classes in pool[:20] for alpha in classes]
    raised = 0
    for model, alpha in cases:
        wrong.clear()
        try:
            decompose(model, alpha)
        except InternalInconsistencyError as exc:
            assert str(exc).startswith(
                "post-solve certificate verification failed: reconstruction failed")
            raised += 1
        else:
            assert not wrong  # no round ran, so nothing was tampered with
    assert raised == 57  # the two examples and the 55 pool classes that take a round


def _rescaled(model: ConeModel) -> ConeModel:
    """`model` with the form divided by 6, prime k by k + 2 and ``h`` by 5, so
    that each prime has its own denominator; no sign changes."""
    return cone_model([[x / 6 for x in row] for row in model.form.entries],
                      [(p.name, [x / (k + 2) for x in p.vec])
                       for k, p in enumerate(model.primes)],
                      [x / 5 for x in model.h])


def test_integer_projection_matches_the_fraction_projection(pool, monkeypatch):
    """For every active set the loop reaches, on the 1000 pool classes, 60
    arbitrary integer classes at del Pezzo r = 7, the A_n chains for
    n = 3..10, one arbitrary integer class per grid model (for refusals at a
    pivot) and the first 50 pool models' classes with rescaled primes, the
    loop's integer projection and the oracle's Fraction `_project` give the
    same coefficients, the loop's cleared residual ``(z, d)`` is the oracle's
    residual cleared to lowest terms, or both refuse.  Each round is compared
    as it runs, so a wrong projection fails here rather than looping on."""
    cases = [(model, alpha) for _, model, classes in pool for alpha in classes]
    r7, draw = del_pezzo(7), random.Random(7)
    cases += [(r7, as_vector(draw.randint(-4, 4) for _ in range(r7.rank)))
              for _ in range(60)]
    cases += [a_n_chain(n) for n in range(3, 11)]
    cases += [(model, as_vector(draw.randint(-4, 4) for _ in range(model.rank)))
              for _, model, _ in pool]
    cases += [(_rescaled(model), alpha) for _, model, classes in pool[:50] for alpha in classes]
    kinds = Counter()
    project = engine._project_primes

    def spy(model, a, b, den, active):
        out = project(model, a, b, den, active)
        alpha = tuple(Q(x, den) for x in a)
        oracle = engine._project(model.form, alpha, [model.primes[i].vec for i in active])
        if out is None:
            assert oracle is None
        else:
            y, det, z, d = out
            dens = model.compiled.dens
            coeffs = tuple(Q(dens[i] * yi, det * den) for i, yi in zip(active, y))
            assert (coeffs, (z, d)) == (oracle[0], clear_denominators(oracle[1]))
        kinds["solved" if out else "oversize" if len(active) >= model.rank else "pivot"] += 1
        return out

    monkeypatch.setattr(engine, "_project_primes", spy)
    for model, alpha in cases:
        try:
            decompose(model, alpha)
        except NotPseudoEffectiveError:
            pass
    assert kinds == {"solved": 905, "oversize": 68, "pivot": 36}


def test_a_wrong_projection_ends_in_the_progress_guard(pool, monkeypatch):
    """A projection that subtracts ``y_i * p_i`` where ``y_i * compiled.primes[i]``
    belongs, dropping each prime's denominator, leaves residuals that pair
    negatively with active primes on the rescaled pool models; the loop raises
    instead of solving the same system again and again.  The wrapper stops a
    decomposition past ``rank + 1`` projections, which no loop that grows its
    active set each round can reach."""
    project = engine._project_primes
    projections = Counter()

    def mutant(model, a, b, den, active):
        projections[a] += 1
        if projections[a] > model.rank + 1:
            raise AssertionError(f"{projections[a]} projections of one class")
        if (out := project(model, a, b, den, active)) is None:
            return None
        y, det = out[:2]
        z = combine(tuple(det * x for x in a),
                    ((-yi, model.primes[i].vec) for yi, i in zip(y, active)))
        return y, det, *clear_denominators(tuple(Q(x, det * den) for x in z))

    monkeypatch.setattr(engine, "_project_primes", mutant)
    with pytest.raises(InternalInconsistencyError, match="active primes"):
        for _, model, classes in pool[:50]:
            model = _rescaled(model)
            for alpha in classes:
                projections.clear()
                try:
                    decompose(model, alpha)
                except NotPseudoEffectiveError:
                    pass


def test_a_loop_that_forgets_its_active_set_ends_in_the_round_bound(pool, monkeypatch):
    """A loop whose active set is the latest violators alone, not their union with
    the earlier ones, cycles between projections on 51 pool classes and on the
    A_3, A_5 and A_8 chains; the round bound raises on each of them instead.  The
    mutant is `_active_set`'s own source with that one line replaced, run in
    `engine`'s namespace.  Its projections are capped at ``len(primes) + 1`` per
    class, past the bound, so a loop without the bound fails here, not hangs."""
    line = "active = sorted({*active, *violating})"
    source = inspect.getsource(engine._active_set)
    assert source.count(line) == 1
    namespace = dict(vars(engine))
    exec(source.replace(line, "active = sorted(violating)"), namespace)
    project, projections = engine._project_primes, Counter()

    def capped(model, a, *args):
        projections[a] += 1
        if projections[a] > len(model.primes) + 1:
            raise AssertionError(f"{projections[a]} projections of one class")
        return project(model, a, *args)

    namespace["_project_primes"] = capped
    monkeypatch.setattr(engine, "_active_set", namespace["_active_set"])
    cases = [(model, alpha) for _, model, classes in pool for alpha in classes]
    bounded = []
    for k, (model, alpha) in enumerate(cases + [a_n_chain(n) for n in (3, 5, 8)]):
        projections.clear()
        try:
            decompose(model, alpha)
        except InternalInconsistencyError as exc:
            if str(exc) == f"round {len(model.primes) + 1}: more rounds than primes":
                bounded.append(k)
        except NotPseudoEffectiveError:
            pass
    assert len(bounded) == 54 and bounded[-3:] == [1000, 1001, 1002]


def test_closure_refusal_values_off_scale_one(pool, monkeypatch):
    """On the 200 rescaled grid models, 6 arbitrary fractional classes each: every
    closure refusal reports `inner` on the final residual, ``q(Z, Z)`` and
    ``q(Z, h)``, though the form, ``h``, the primes and the residual each have
    a denominator.  The residual is the last projection's, or alpha when no
    round ran."""
    project = engine._project_primes
    residuals = []

    def spy(*args):
        if (out := project(*args)) is not None:
            residuals.append(tuple(Q(x, out[3]) for x in out[2]))
        return out

    monkeypatch.setattr(engine, "_project_primes", spy)
    draw, rounds = random.Random(1), Counter()
    for _, model, _ in pool:
        model = _rescaled(model)
        for _ in range(6):
            alpha = as_vector(Q(draw.randint(-9, 9), draw.randint(1, 7))
                              for _ in range(model.rank))
            residuals[:] = [alpha]
            try:
                decompose(model, alpha)
            except NotPseudoEffectiveError as exc:
                if exc.reason == "positive-cone-closure":
                    z = residuals[-1]
                    assert exc.detail == {"q_self": inner(model.form, z, z),
                                          "q_h": inner(model.form, z, model.h)}
                    rounds[len(residuals) > 1] += 1
    assert rounds == {False: 340, True: 351}  # no round ran, a round ran


def test_engine_and_oracle_agree_on_arbitrary_classes(pool):
    """The refusal gate: the first 3 of the benchmark cli workload's 10
    integer classes per grid model, entries in [-4, 4], drawn from seed 0.  A
    definiteness refusal names the whole active set, which is not exceptional,
    not only the primes that joined it last."""
    draw = random.Random(0)
    verdicts = Counter()
    for _, model, _ in pool:
        batch = [
            as_vector(draw.randint(-4, 4) for _ in range(model.rank)) for _ in range(10)
        ]
        for alpha in batch[:3]:
            try:
                d = decompose(model, alpha)
            except NotPseudoEffectiveError as exc:
                verdicts[exc.reason] += 1
                if exc.reason == "gram-not-negative-definite":
                    assert not is_exceptional_family(model, exc.detail["subset"])
                with pytest.raises(NotPseudoEffectiveError, match="no-candidate"):
                    brute_force_decompose(model, alpha)
                continue
            verdicts["decomposed"] += 1
            assert_oracle_agrees(model, alpha, d)
    assert verdicts == {
        "decomposed": 84,
        "positive-cone-closure": 349,
        "gram-not-negative-definite": 167,
    }


def test_oracle_cross_checks_the_walk(affine_a2, monkeypatch):
    walk = engine.enumerate_exceptional_families
    # c1, c2, c3 form a cycle whose Gram matrix is singular
    monkeypatch.setattr(engine, "enumerate_exceptional_families",
                        lambda model: walk(model) + [("c1", "c2", "c3")])
    with pytest.raises(InternalInconsistencyError, match="not negative definite"):
        brute_force_decompose(affine_a2, [1, 1, 0, 0])


def test_engine_and_oracle_raise_when_their_certificate_fails(s1, monkeypatch):
    """Both run the one certificate body: the loop's exit on its own cleared state,
    the oracle through `verify_certificate`."""
    real = engine._certify
    monkeypatch.setattr(engine, "_certify", lambda *args: (real(*args)[0], ["tampered"]))
    with pytest.raises(InternalInconsistencyError,
                       match="post-solve certificate verification failed: tampered"):
        decompose(s1, [1, 2])
    with pytest.raises(OracleUniquenessError,
                       match="exhaustive candidate failed verification: tampered"):
        brute_force_decompose(s1, [1, 2])


def test_oracle_refuses_two_surviving_candidates(s1, monkeypatch):
    """With every remainder called dual-nef, both the empty family and {E}
    survive for (1, 2)."""
    monkeypatch.setattr(ConeModel, "is_dual_nef", lambda self, v: True)
    with pytest.raises(OracleUniquenessError, match="2 distinct decompositions survived"):
        brute_force_decompose(s1, (1, 2))


def test_engine_and_oracle_refuse_a_model_that_breaks_the_axioms():
    """Right shape, but q(a, b) = -1 < 0 between distinct primes."""
    model = cone_model(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [("a", [0, 1, 0]), ("b", [0, 1, 1])],
        [1, 0, 0],
    )
    for solver in (decompose, brute_force_decompose):
        with pytest.raises(InvalidModelError, match="must pair nonnegatively"):
            solver(model, [1, 0, 0])
    # the report is computed once and then read from the model
    assert model.__dict__["report"] is model.report == model.validate()


def test_oracle_uniqueness_error_is_assertion():
    assert issubclass(OracleUniquenessError, AssertionError)


# -- properties on the generated pool -----------------------------------------


def test_pool_decompositions_satisfy_all_invariants(pool_decompositions):
    for model, alpha, d in pool_decompositions:
        assert d.certificate.all_passed
        reconstructed = d.positive_part
        for name, coeff in d.negative_coeffs.items():
            vec = model.prime_vec[name]
            reconstructed = vec_add(reconstructed, vec_scale(coeff, vec))
        assert reconstructed == alpha
        # every active prime ends with a strictly positive coefficient
        assert d.support == tuple(d.negative_coeffs)
        assert all(c > 0 for c in d.negative_coeffs.values())
        assert 1 <= d.iterations <= max(1, len(model.primes))
        assert model.is_dual_nef(d.positive_part)


def test_pool_support_is_exceptional_family(pool_decompositions):
    for model, _, d in pool_decompositions:
        assert is_exceptional_family(model, d.support)


def test_pool_round_histogram(pool_decompositions):
    """How many rounds the 1000 pool cases take: most classes settle in one."""
    assert Counter(d.iterations for _, _, d in pool_decompositions) == {1: 949, 2: 50, 3: 1}


def test_pool_oracle_equivalence_sample(pool_decompositions):
    for model, alpha, d in pool_decompositions[:100]:
        b = brute_force_decompose(model, alpha)
        assert b.positive_part == d.positive_part
        assert dict(b.negative_coeffs) == dict(d.negative_coeffs)


def test_negative_part_translation_fixes_positive_part(pool_decompositions):
    """Adding support primes moves only the negative part, linearly."""
    checked = 0
    for model, alpha, d in pool_decompositions:
        if not d.support:
            continue
        shifted = alpha
        for name in d.support:
            vec = model.prime_vec[name]
            shifted = vec_add(shifted, vec_scale(Q(1, 2), vec))
        d2 = decompose(model, shifted)
        assert d2.positive_part == d.positive_part
        assert d2.support == d.support
        for name in d.support:
            assert d2.negative_coeffs[name] == d.negative_coeffs[name] + Q(1, 2)
        checked += 1
        if checked >= 150:
            break
    assert checked >= 100


def test_prime_order_does_not_change_result(pool_decompositions):
    checked = 0
    for model, alpha, d in pool_decompositions:
        if len(model.primes) < 2:
            continue
        reordered = cone_model(
            model.form.entries,
            [(p.name, p.vec) for p in reversed(model.primes)],
            model.h,
            model.m,
        )
        d2 = decompose(reordered, alpha)
        assert d2.positive_part == d.positive_part
        assert dict(d2.negative_coeffs) == dict(d.negative_coeffs)
        assert sorted(d2.support) == sorted(d.support)
        checked += 1
        if checked >= 150:
            break
    assert checked >= 100


def test_scaling_equivariance(pool_decompositions):
    for model, alpha, d in pool_decompositions[:100]:
        d2 = decompose(model, vec_scale(Q(3), alpha))
        assert d2.positive_part == vec_scale(Q(3), d.positive_part)
        assert dict(d2.negative_coeffs) == {
            n: 3 * c for n, c in d.negative_coeffs.items()
        }


def test_volume_positive_iff_big(pool_decompositions):
    """Bigness, the positive part in the open positive cone, is volume > 0:
    for Z in the closed cone, q(Z, Z) > 0 already forces q(Z, h) > 0."""
    for model, alpha, d in pool_decompositions[:200]:
        v = volume(model, alpha)
        z = d.positive_part
        assert v >= 0
        assert (v > 0) == (inner(model.form, z, z) > 0
                           and inner(model.form, z, model.h) > 0)


def test_volume_is_the_fraction_self_pairing_of_the_positive_part(pool):
    """``q(Z, Z)**m``, read off the integers over ``scale·d²``, equals `inner` on the
    Fraction positive part: the first 50 pool models' classes, on each model and
    on it rescaled, where the form's ``scale`` and the positive part's ``d`` exceed 1."""
    fractional = Counter()
    for _, model, classes in pool[:50]:
        for m in (model, _rescaled(model)):
            for alpha in classes:
                z = decompose(m, alpha).positive_part
                assert volume(m, alpha) == inner(m.form, z, z) ** m.m
                fractional[any(x.denominator > 1 for x in z)] += 1
    assert fractional == {True: 416, False: 84}


# -- closed-form oracle for the rank-2 single-prime model ---------------------

# n/d with d <= 12 and |n| <= 8d: the support of st.fractions(-8, 8,
# max_denominator=12), drawn without its flatmap; k*d // 12 takes every
# value in [-8d, 8d] as k runs over [-96, 96]
_fracs = st.builds(
    lambda d, k: Q(k * d // 12, d), st.integers(1, 12), st.integers(-96, 96)
)


@settings(max_examples=300, deadline=None)
@given(a1=_fracs, a2=_fracs)
def test_rank2_closed_form(s1, a1, a2):
    """On the rank-2 model, pseudo-effectivity and the splitting are explicit:
    a prime joins exactly when a2 > 0, and the projected class (a1, 0) must
    lie in the closed positive cone."""
    pe = (a2 > 0 and a1 >= 0) or (a2 <= 0 and a1 >= -a2)
    if not pe:
        with pytest.raises(NotPseudoEffectiveError):
            decompose(s1, [a1, a2])
        return
    d = decompose(s1, [a1, a2])
    if a2 > 0:
        assert d.positive_part == as_vector([a1, 0])
        assert d.negative_coeffs == {"E": a2}
    else:
        assert d.positive_part == as_vector([a1, a2])
        assert d.negative_coeffs == {}
