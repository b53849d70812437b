"""Projective-bundle classes: intersection numbers, thresholds, volumes."""
from __future__ import annotations

import math
from fractions import Fraction as Q

import pytest

from zariski import (
    BaseSurface,
    BundleClass,
    FormatError,
    InternalInconsistencyError,
    IrrationalClassError,
    MixedRadicandError,
    NotPseudoEffectiveError,
    QuadExt,
    decimal_approx,
    decompose_bundle,
    intersect3,
    is_rational,
    mu_L,
    volume_L,
)
from zariski import bundle
from zariski.bundle import L
from zariski.serialize import scalar_to_json

SQRT3 = QuadExt(0, 1, 3)


def as_float(x) -> float:
    if isinstance(x, QuadExt):
        return float(x.a) + float(x.b) * math.sqrt(x.d)
    return float(x)


def rational_mu_bases():
    """All small integral pairings with a perfect-square threshold discriminant."""
    out = []
    for d_sq in range(1, 5):
        for dh in range(1, 5):
            for h_sq in range(1, 5):
                if d_sq * h_sq > dh * dh:
                    continue
                out.append(BaseSurface(d_sq, dh, h_sq))
    return out


# -- base surface data ---------------------------------------------------------


def test_base_surface_requires_positive_pairings():
    with pytest.raises(ValueError, match="must be positive"):
        BaseSurface(0, 1, 1)
    with pytest.raises(ValueError, match="must be positive"):
        BaseSurface(1, -2, 1)


def test_base_surface_requires_index_constraint():
    with pytest.raises(ValueError, match="index constraint"):
        BaseSurface(1, 1, 2)


def test_nef_cone_examples():
    base = BaseSurface(1, 2, 1)
    assert base.in_nef_cone((1, 0))
    assert base.in_nef_cone((1, 1))
    assert not base.in_nef_cone((0, -1))
    assert not base.in_nef_cone((-1, 0))


# -- triple intersection numbers ------------------------------------------------


def test_intersection_examples():
    base = BaseSurface(1, 2, 1)
    pD = BundleClass(0, 1, 0)
    pH = BundleClass(0, 0, 1)
    assert intersect3(base, L, L, L) == Q(0)  # (D-H)^2 + D.H = -2 + 2
    assert intersect3(base, L, L, pD) == Q(-1)  # (D-H).D
    assert intersect3(base, L, L, pH) == Q(1)  # (D-H).H
    assert intersect3(base, L, pD, pD) == Q(1)  # D^2
    assert intersect3(base, L, pD, pH) == Q(2)  # D.H
    assert intersect3(base, pD, pD, pD) == Q(0)  # pullbacks cube to zero
    assert intersect3(base, pD, pH, pH) == Q(0)


def test_intersection_is_symmetric_and_trilinear():
    base = BaseSurface(4, 2, 1)
    c1 = BundleClass(1, 2, -1)
    c2 = BundleClass(0, 1, 3)
    c3 = BundleClass(2, -1, 1)
    v = intersect3(base, c1, c2, c3)
    assert intersect3(base, c2, c1, c3) == v
    assert intersect3(base, c3, c2, c1) == v
    lhs = intersect3(
        base, BundleClass(c1.t + 2 * c2.t, c1.x + 2 * c2.x, c1.y + 2 * c2.y), c3, c3
    )
    rhs = intersect3(base, c1, c3, c3) + 2 * intersect3(base, c2, c3, c3)
    assert lhs == rhs


def test_intersection_accepts_shared_radicand_and_rejects_mixed():
    base = BaseSurface(1, 2, 1)
    c = BundleClass(QuadExt(1, 1, 3), 0, 0)
    assert intersect3(base, c, L, L) == QuadExt(0, 0, 0)  # t^3 * 0 ... all L^3 terms
    bad = BundleClass(QuadExt(0, 1, 2), 0, 0)
    with pytest.raises(MixedRadicandError):
        intersect3(base, c, bad, L)


def test_intersection_with_a_zero_factor_never_mixes_radicands():
    """sqrt(3) and sqrt(2) sit in different classes, and every term that would
    multiply them carries a zero factor, so the value is exact."""
    base = BaseSurface(1, 2, 1)
    c1 = BundleClass(QuadExt(0, 1, 3), 0, 0)
    c2 = BundleClass(0, QuadExt(0, 1, 2), 0)
    v = intersect3(base, c1, c2, BundleClass(0, 0, 0))
    assert v == 0 and type(v) is Q


# -- the normal form of a bundle value -------------------------------------------


def test_bundle_fields_are_fractions_unless_irrational():
    c = BundleClass(QuadExt(1), QuadExt(2, 3, 5), 0)
    assert [type(v) for v in (c.t, c.x, c.y)] == [Q, QuadExt, Q]
    assert c == BundleClass(1, QuadExt(2, 3, 5), 0)


@pytest.mark.parametrize("pairings", [(1, 1, 1), (1, 2, 1), (4, 2, 1)], ids=str)
def test_rational_quadext_fields_decompose_like_fractions(pairings):
    base = BaseSurface(*pairings)
    for t, x, y in ((1, 0, 0), (0, 1, 0), (2, -1, 0), (2, Q(1, 2), 1)):
        plain = decompose_bundle(base, BundleClass(t, x, y))
        lifted = decompose_bundle(base, BundleClass(QuadExt(t), QuadExt(x), QuadExt(y)))
        assert lifted == plain
        (z, s), (z0, s0) = lifted, plain
        assert [type(v) for v in (z.t, z.x, z.y, s)] == [type(v) for v in (z0.t, z0.x, z0.y, s0)]


# -- nef thresholds --------------------------------------------------------------


def test_mu_examples():
    assert mu_L(BaseSurface(1, 1, 1)) == Q(1, 2)
    assert mu_L(BaseSurface(4, 2, 1)) == Q(1, 3)
    mu = mu_L(BaseSurface(1, 2, 1))
    assert mu == QuadExt(Q(1, 2), Q(1, 6), 3)
    assert not is_rational(mu)


@pytest.mark.parametrize("base", rational_mu_bases(), ids=str)
def test_mu_is_minimal_nef_threshold(base):
    mu = mu_L(base)
    assert 0 < mu <= 1

    def gamma(t):
        return (t, t - 1)

    assert base.in_nef_cone(gamma(mu))
    assert base.in_nef_cone(gamma(1))
    for k in range(1, 8):
        below = mu * Q(k, 8)
        assert not base.in_nef_cone(gamma(below))
    assert not base.in_nef_cone(gamma(mu * Q(127, 128)))


# -- fiberwise decomposition ------------------------------------------------------


def test_tautological_class_decomposition_irrational_base():
    base = BaseSurface(1, 2, 1)
    z, s = decompose_bundle(base, L)
    mu = mu_L(base)
    assert s == mu
    assert z.t == 1 - mu and z.x == mu and z.y == Q(0)


def test_tautological_class_decomposition_rational_bases():
    for base, expected in ((BaseSurface(1, 1, 1), Q(1, 2)), (BaseSurface(4, 2, 1), Q(1, 3))):
        z, s = decompose_bundle(base, L)
        assert s == expected == mu_L(base)
        assert (z.t, z.x, z.y) == (1 - expected, expected, Q(0))


def test_nef_inputs_have_zero_negative_part():
    base = BaseSurface(1, 2, 1)
    for alpha in (BundleClass(1, 0, 1), BundleClass(0, 1, 0), BundleClass(0, 0, 0)):
        z, s = decompose_bundle(base, alpha)
        assert s == 0
        assert z == alpha


def test_not_pseudo_effective_bundle_classes():
    base = BaseSurface(1, 2, 1)
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose_bundle(base, BundleClass(-1, 0, 0))
    assert err.value.reason == "fiber-coefficient-negative"
    with pytest.raises(NotPseudoEffectiveError) as err:
        decompose_bundle(base, BundleClass(0, -1, 0))
    assert err.value.reason == "base-projection-outside-nef"


def test_pseudo_effectivity_reads_the_base_projection_at_the_fiber_end():
    """``(x + t)D + yH`` is nef here while ``xD + yH`` is not, so the class is
    decomposed rather than refused."""
    z, s = decompose_bundle(BaseSurface(1, 1, 1), BundleClass(1, Q(-1, 2), 0))
    assert (z, s) == (BundleClass(Q(1, 4), Q(1, 4), 0), Q(3, 4))


def test_irrational_class_outside_nef_cone_is_rejected():
    base = BaseSurface(1, 2, 1)
    with pytest.raises(IrrationalClassError):
        decompose_bundle(base, BundleClass(QuadExt(0, 1, 2), 0, 0))


def test_a_class_over_the_zero_base_class_is_all_negative_part():
    """Over ``D = H`` numerically, ``L - pi*D`` projects to zero, so the
    threshold is the fiber coefficient itself: ``s = t``."""
    assert decompose_bundle(BaseSurface(1, 1, 1), BundleClass(1, -1, 0)) == (
        BundleClass(0, 0, 0), Q(1))


@pytest.mark.parametrize("roots", [(), (Q(0),), (Q(2),), (Q(1, 4),)],
                         ids=["none", "zero", "past-t", "not-nef"])
def test_a_wrong_threshold_root_is_an_internal_inconsistency(monkeypatch, roots):
    """The split re-checks the root it is handed: no root, one outside
    ``(0, t]`` or one where ``g(s)`` is not nef raises instead of splitting."""
    monkeypatch.setattr(bundle, "quadratic_roots", lambda *coefficients: roots)
    with pytest.raises(InternalInconsistencyError):
        decompose_bundle(BaseSurface(1, 2, 1), L)


def test_decomposition_reconstructs_and_z_is_nef():
    """Z + s*(L - pi*D) == alpha, Z lies over the nef cone, s is minimal."""
    bases = rational_mu_bases() + [BaseSurface(1, 2, 1)]
    classes = [
        BundleClass(1, 0, 0),
        BundleClass(2, -1, 0),
        BundleClass(1, 1, -1),
        BundleClass(3, 0, -1),
        BundleClass(1, Q(1, 2), Q(-1, 2)),
    ]
    for base in bases:
        for alpha in classes:
            try:
                z, s = decompose_bundle(base, alpha)
            except NotPseudoEffectiveError:
                continue
            assert z.t + s == alpha.t
            assert z.x - s == alpha.x
            assert z.y == alpha.y
            assert 0 <= s <= alpha.t
            # Z is nef: both boundary sections project into the nef cone
            assert base.in_nef_cone((z.x + z.t, z.y))
            assert base.in_nef_cone((z.x, z.y - z.t))
            # minimality: any smaller coefficient leaves the negative section
            if s > 0:
                for k in range(8):
                    below = s * Q(k, 8)
                    assert not base.in_nef_cone(
                        (alpha.x + below, alpha.y - alpha.t + below)
                    )


# -- volumes -----------------------------------------------------------------------


def independent_volume(base: BaseSurface):
    """Cubic expansion of (aL + mu pi*D)^3 with a = 1 - mu, term by term."""
    mu = mu_L(base)
    a = 1 - mu
    l3 = base.d_sq - base.dh + base.h_sq
    lld = base.d_sq - base.dh
    ldd = base.d_sq
    return a * a * a * l3 + 3 * a * a * mu * lld + 3 * a * mu * mu * ldd


@pytest.mark.parametrize(
    "pairings, expected",
    [
        ((1, 1, 1), Q(1, 2)),
        ((4, 2, 1), Q(8, 3)),
        ((1, 2, 1), QuadExt(0, Q(1, 6), 3)),
    ],
)
def test_volume_frozen_values(pairings, expected):
    base = BaseSurface(*pairings)
    v = volume_L(base)
    assert v == expected
    assert v == independent_volume(base)


def test_volume_irrationality_flag():
    assert not is_rational(volume_L(BaseSurface(1, 2, 1)))
    assert is_rational(volume_L(BaseSurface(1, 1, 1)))
    assert is_rational(volume_L(BaseSurface(4, 2, 1)))


@pytest.mark.parametrize("base", rational_mu_bases(), ids=str)
def test_volume_matches_floating_point_crosscheck(base):
    exact = volume_L(base)
    assert exact == independent_volume(base)
    a_, b_, c_ = (
        float(base.d_sq + 2 * base.dh + base.h_sq),
        float(-2 * (base.dh + base.h_sq)),
        float(base.h_sq),
    )
    disc = b_ * b_ - 4 * a_ * c_
    assert disc >= -1e-9
    roots = sorted(
        ((-b_ - math.sqrt(max(disc, 0.0))) / (2 * a_),
         (-b_ + math.sqrt(max(disc, 0.0))) / (2 * a_))
    )
    slope, shift = a_, float(base.dh + base.h_sq)
    mu_f = next(r for r in roots if r > 0 and r * slope - shift >= -1e-9)
    a_f = 1 - mu_f
    vol_f = (
        a_f**3 * float(base.d_sq - base.dh + base.h_sq)
        + 3 * a_f**2 * mu_f * float(base.d_sq - base.dh)
        + 3 * a_f * mu_f**2 * float(base.d_sq)
    )
    assert abs(as_float(exact) - vol_f) < 1e-9


# -- display approximations --------------------------------------------------------


def test_printing_past_the_digit_limit_is_a_format_error():
    with pytest.raises(FormatError, match="too large to print"):
        decimal_approx(Q(10**4400))
    # a radicand taken as reduced, so no trial division runs
    value = QuadExt._reduced(Q(0), Q(1), 11**4200)
    with pytest.raises(FormatError, match="too large to print"):
        scalar_to_json(value)


def test_decimal_approx_pins():
    assert decimal_approx(QuadExt(0, 1, 2)) == "1.414213562373"
    assert decimal_approx(QuadExt(0, -1, 2)) == "-1.414213562373"
    assert decimal_approx(Q(1, 3)) == "0.333333333333"
    assert decimal_approx(Q(10**20, 3)) == "33333333333333333333.333333333333"
    assert decimal_approx(Q(1, 2)) == "0.500000000000"
    assert decimal_approx(Q(0)) == "0.000000000000"
    assert decimal_approx(QuadExt(Q(1, 2), Q(1, 6), 3)) == "0.788675134595"
    assert decimal_approx(volume_L(BaseSurface(1, 2, 1))) == "0.288675134595"
    # an exact root, on a radicand taken as reduced, rounds at a half as the rational does
    assert decimal_approx(QuadExt._reduced(Q(1, 2 * 10**12), Q(-1), 4)) == "-1.999999999999"
