"""Model validation and cone membership predicates."""
from __future__ import annotations

from fractions import Fraction as Q

import pytest

from zariski import InvalidModelError, cone_model, decompose
from zariski.exact import vec_add, vec_scale


def test_s1_is_valid_with_boundary_warning(s1):
    report = s1.validate()
    assert report.ok
    assert report.violations == ()
    assert any("orthogonal to h" in w for w in report.warnings)


def test_s2_and_affine_are_valid(s2, affine_a2):
    assert s2.validate().ok
    assert affine_a2.validate().ok


def test_validate_rejects_non_lorentzian_signature():
    model = cone_model([[1, 0], [0, 1]], {}, [1, 0])
    report = model.validate()
    assert not report.ok
    assert any("signature" in v for v in report.violations)


def test_validate_rejects_nonpositive_reference_class():
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, [0, 1])
    report = model.validate()
    assert any("q(h, h) > 0" in v for v in report.violations)


def test_validate_rejects_negative_pairing_with_h():
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, [2, 1])
    # q(h, E) = -1 < 0
    report = model.validate()
    assert any("pairs negatively with h" in v for v in report.violations)


def test_validate_rejects_negative_pairwise_primes():
    model = cone_model(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [("a", [0, 1, 0]), ("b", [0, 1, 1])],
        [1, 0, 0],
    )
    # q(a, b) = -1 < 0
    report = model.validate()
    assert any("must pair nonnegatively" in v for v in report.violations)


@pytest.mark.parametrize(
    "primes, h, m, finding",
    [
        ({"E": [0, 1, 0]}, [1, 0], 1, "prime 'E' has length 3"),
        ({"E": [0, 1]}, [1, 0, 0], 1, "reference class has length 3"),
        ([("E", [0, 1]), ("E", [0, 1])], [1, 0], 1, "duplicate prime name 'E'"),
        ({}, [1, 0], 0, "m must be a positive integer"),
    ],
    ids=["prime-length", "h-length", "duplicate-name", "m-zero"],
)
def test_construction_rejects_bad_shape(primes, h, m, finding):
    with pytest.raises(InvalidModelError) as err:
        cone_model([[1, 0], [0, -1]], primes, h, m)
    assert any(finding in v for v in err.value.violations)


def test_validate_rejects_zero_prime():
    model = cone_model([[1, 0], [0, -1]], {"Z": [0, 0]}, [1, 0])
    assert any("zero class" in v for v in model.validate().violations)


def test_require_valid_raises_with_all_violations():
    model = cone_model([[1, 0], [0, 1]], {}, [0, 1])
    with pytest.raises(InvalidModelError) as err:
        model.require_valid()
    assert err.value.violations


def test_positive_cone_closure_examples(s1):
    assert s1.in_positive_cone_closure([1, 0])
    assert s1.in_positive_cone_closure([2, 1])
    assert s1.in_positive_cone_closure([1, 1])  # isotropic boundary
    assert s1.in_positive_cone_closure([0, 0])
    assert not s1.in_positive_cone_closure([1, 2])  # negative square
    assert not s1.in_positive_cone_closure([-1, 0])  # wrong half-cone


def test_dual_nef_examples(s1):
    assert not s1.is_dual_nef([1, 2])  # pairs negatively with E
    assert s1.is_dual_nef([1, -1])
    assert s1.is_dual_nef([1, 0])
    assert not s1.is_dual_nef([-1, 0])


def test_prime_with_negative_square_is_not_dual_nef(s1, s2):
    assert not s1.is_dual_nef(s1.primes[0].vec)
    for p in s2.primes:
        assert not s2.is_dual_nef(p.vec)


def test_dual_nef_cone_closed_under_addition_and_scaling(pool):
    """Positive parts from random decompositions generate dual-nef classes."""
    checked = 0
    for _, model, classes in pool[:60]:
        zs = [decompose(model, alpha).positive_part for alpha in classes[:2]]
        for z in zs:
            assert model.is_dual_nef(z)
            assert model.is_dual_nef(vec_scale(Q(7, 3), z))
        assert model.is_dual_nef(vec_add(zs[0], zs[1]))
        checked += 1
    assert checked == 60
