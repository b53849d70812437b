"""Rank-two projective bundle classes over a surface, in exact arithmetic.

The setting: a smooth projective surface carries two ample divisor classes
``D`` and ``H`` recorded only through their pairings ``D^2``, ``D.H``,
``H^2``.  On the bundle ``P(O(D) + O(-H))`` the tautological class ``L``
and pullbacks ``pi*(xD + yH)`` span a three-parameter family whose cubic
intersection numbers follow from the two relations

    ``L^3 = (D - H)^2 + D.H``  and  ``L^2 . pi*(g) = (D - H).g``,

together with ``L . pi*(g) . pi*(g') = g.g'`` and the vanishing of triple
pullback products.  The fiberwise decomposition of a class ``tL + pi*(b)``
has negative part ``s * E`` with ``E = L - pi*(D)`` and

    ``s = min{ s in [0, t] : b + sD - (t - s)H is nef on the base }``,

which leads to quadratic irrationalities: the decomposition of ``L`` itself
has volume ``q`` in a real quadratic extension, and suitable pairing data
makes that volume irrational.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import InternalInconsistencyError, NotPseudoEffectiveError
from .exact import QuadExt, Scalar, quadratic_roots


class IrrationalClassError(ValueError):
    """Bundle decomposition of a non-rational class needed new radicals."""


def is_rational(x: Scalar) -> bool:
    return not isinstance(x, QuadExt) or x.is_rational


def _as_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x.a if x.is_rational else x
    return Fraction(x)


@dataclass(frozen=True)
class BaseSurface:
    """Pairing data of two ample classes D, H on the base surface."""

    d_sq: Fraction
    dh: Fraction
    h_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d_sq", Fraction(self.d_sq))
        object.__setattr__(self, "dh", Fraction(self.dh))
        object.__setattr__(self, "h_sq", Fraction(self.h_sq))
        for label, value in (("D^2", self.d_sq), ("D.H", self.dh), ("H^2", self.h_sq)):
            if value <= 0:
                raise ValueError(f"ample pairing {label} must be positive, got {value}")
        if self.d_sq * self.h_sq > self.dh * self.dh:
            raise ValueError(
                "pairings violate the index constraint (D.H)^2 >= D^2 * H^2: "
                f"{self.dh}^2 < {self.d_sq} * {self.h_sq}"
            )

    def pair(self, u: tuple[Scalar, Scalar], v: tuple[Scalar, Scalar]) -> Scalar:
        """Intersection of ``u[0]D + u[1]H`` with ``v[0]D + v[1]H``."""
        (x, y), (x2, y2) = u, v
        return (
            x * x2 * self.d_sq
            + (x * y2 + x2 * y) * self.dh
            + y * y2 * self.h_sq
        )

    def in_nef_cone(self, g: tuple[Scalar, Scalar]) -> bool:
        """Nef test in the rational surface cone spanned around D, H.

        With both generators ample, a combination is nef iff it has
        nonnegative self-pairing and pairs nonnegatively with the ample
        ray ``D + H``.
        """
        return self.pair(g, g) >= 0 and self.pair(g, (1, 1)) >= 0


@dataclass(frozen=True)
class BundleClass:
    """The class ``t*L + pi*(x*D + y*H)``; each field a ``Fraction`` unless irrational."""

    t: Scalar
    x: Scalar
    y: Scalar

    def __post_init__(self):
        object.__setattr__(self, "t", _as_scalar(self.t))
        object.__setattr__(self, "x", _as_scalar(self.x))
        object.__setattr__(self, "y", _as_scalar(self.y))


L = BundleClass(1, 0, 0)


def intersect3(
    base: BaseSurface, c1: BundleClass, c2: BundleClass, c3: BundleClass
) -> Scalar:
    """Exact triple intersection number of three bundle classes."""
    l3 = base.d_sq - base.dh + base.h_sq  # (D-H)^2 + D.H

    def lsq_pair(g: tuple[Scalar, Scalar]) -> Scalar:
        # L^2 . pi*(g) = (D - H).g
        return g[0] * (base.d_sq - base.dh) + g[1] * (base.dh - base.h_sq)

    g1, g2, g3 = (c1.x, c1.y), (c2.x, c2.y), (c3.x, c3.y)
    total = c1.t * c2.t * c3.t * l3
    total = total + c1.t * c2.t * lsq_pair(g3)
    total = total + c1.t * c3.t * lsq_pair(g2)
    total = total + c2.t * c3.t * lsq_pair(g1)
    total = total + c1.t * base.pair(g2, g3)
    total = total + c2.t * base.pair(g1, g3)
    total = total + c3.t * base.pair(g1, g2)
    return _as_scalar(total)


def _threshold_roots(base: BaseSurface, w: tuple[Scalar, Scalar]) -> tuple[QuadExt, ...]:
    """Roots of ``(w + s(D + H))^2 = 0`` in ``s``, ascending."""
    return quadratic_roots(
        base.pair((1, 1), (1, 1)), 2 * base.pair(w, (1, 1)), base.pair(w, w)
    )


def mu_candidates(base: BaseSurface) -> tuple[QuadExt, ...]:
    """Both roots of the threshold quadratic, ascending (diagnostics)."""
    return _threshold_roots(base, (0, -1))


def mu_L(base: BaseSurface) -> Scalar:
    """Smallest ``t > 0`` with ``-H + t(D + H)`` nef on the base.

    This is the coefficient of ``E`` in the decomposition of ``L``: for
    ``L`` the base class ``g(s)`` of :func:`decompose_bundle` is
    ``-H + s(D + H)``.  It always lies in ``(0, 1]``.
    """
    return decompose_bundle(base, L)[1]


def decompose_bundle(
    base: BaseSurface, alpha: BundleClass
) -> tuple[BundleClass, Scalar]:
    """Split ``alpha = Z + s*E`` with ``E = L - pi*(D)`` and ``Z`` nef.

    ``alpha = tL + pi*(xD + yH)`` is pseudo-effective iff ``t >= 0`` and
    ``(x + t)D + yH`` is nef on the base; otherwise
    :class:`NotPseudoEffectiveError` is raised.  The coefficient ``s`` is
    the least value in ``[0, t]`` making ``g(s) = (x + s)D + (y - t + s)H``
    nef.  Along ``g`` the direction ``D + H`` is ample, so by the Hodge
    index theorem ``g(s)^2 <= 0`` where ``g(s)`` is orthogonal to
    ``D + H``; that point lies between the roots of ``g(s)^2 = 0``, and
    ``g(s)`` is nef exactly when ``s`` is at least the larger root.
    """
    t, x, y = alpha.t, alpha.x, alpha.y
    if t < 0:
        raise NotPseudoEffectiveError("fiber-coefficient-negative", t=t)
    projected = (x + t, y)
    if not base.in_nef_cone(projected):
        raise NotPseudoEffectiveError(
            "base-projection-outside-nef",
            q_self=base.pair(projected, projected),
            q_ample=base.pair(projected, (1, 1)),
        )

    def gamma(s: Scalar) -> tuple[Scalar, Scalar]:
        return (x + s, y - t + s)

    if base.in_nef_cone(gamma(0)):
        return alpha, Fraction(0)

    if not (is_rational(t) and is_rational(x) and is_rational(y)):
        raise IrrationalClassError(
            "only rational classes are supported outside the nef cone; "
            f"got {alpha}"
        )

    roots = _threshold_roots(base, (x, y - t))
    s = roots[-1] if roots else None
    if s is None or not (0 < s <= t and base.in_nef_cone(gamma(s))):
        raise InternalInconsistencyError(
            f"no nef negative-part coefficient in (0, {t}] for {alpha} over {base}"
        )
    return BundleClass(t - s, x + s, y), _as_scalar(s)


def volume_L(base: BaseSurface) -> Scalar:
    """Volume of the tautological class: cube of its nef positive part."""
    z, _ = decompose_bundle(base, L)
    return intersect3(base, z, z, z)
