"""Identities from the theory, checked on del Pezzo surfaces up to r = 8.

The oracle stops at r = 6 (its cost is the family count), so these gates use
exact identities that any correct decomposition satisfies instead: symmetry
under the Weyl group, convexity of the negative part, and the derivative of
the volume.  Every draw is seeded and kept as drawn.
"""
from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from zariski import NotPseudoEffectiveError, decompose, del_pezzo
from zariski.exact import as_vector, combine, inner

from conftest import vec_add, vec_scale


def effective_class(model, rng):
    """``a(-K) + sum c E`` over 1 to 4 primes, with ``a, c > 0``: big, since
    ``-K`` is ample."""
    alpha = vec_scale(Q(rng.randint(1, 4), rng.randint(1, 3)), model.h)
    for prime in rng.sample(model.primes, rng.randint(1, 4)):
        alpha = vec_add(alpha, vec_scale(Q(rng.randint(1, 4), rng.randint(1, 3)), prime.vec))
    return alpha


def outcome(model, alpha):
    """The decomposition of `alpha`, or the reason it was refused."""
    try:
        return decompose(model, alpha)
    except NotPseudoEffectiveError as exc:
        return exc.reason


def weyl_element(model, rng):
    """``g = sigma . s``: the Cremona reflection ``s(v) = v + q(v, a) a`` in
    ``a = H - E1 - E2 - E3`` (``q(a, a) = -2``, ``q(a, K) = 0``), then a
    seeded permutation ``sigma`` of ``E1, ..., Er``."""
    r = model.rank - 1
    a = as_vector([1, -1, -1, -1] + [0] * (r - 3))
    perm = list(range(1, r + 1))
    rng.shuffle(perm)

    def g(v):
        s = combine(v, [(inner(model.form, v, a), a)])
        image = [s[0]] + [None] * r
        for k, target in enumerate(perm, start=1):
            image[target] = s[k]
        return tuple(image)

    return g


@pytest.mark.parametrize("r", [6, 7, 8])
def test_decompositions_are_weyl_equivariant(r):
    """``W(E_r)`` permutes the (-1)-classes and fixes ``-K``, so by uniqueness
    ``Z(g alpha) = g Z(alpha)``, ``N`` maps along ``g``'s permutation of the
    primes, and a refusal of ``alpha`` is a refusal of ``g alpha`` for the
    same reason (Bauer-Funke-Neumann, J. Algebra 2010)."""
    model = del_pezzo(r)
    rng = random.Random(r)
    g = weyl_element(model, rng)
    name_of = {p.vec: p.name for p in model.primes}
    image_name = {p.name: name_of[g(p.vec)] for p in model.primes}
    assert sorted(image_name.values()) == sorted(image_name)
    assert g(model.h) == model.h

    classes = [as_vector(rng.randint(-4, 4) for _ in range(model.rank))
               for _ in range(100)]
    classes += [effective_class(model, rng) for _ in range(20)]
    verdicts = []
    for alpha in classes:
        d, dg = outcome(model, alpha), outcome(model, g(alpha))
        verdicts.append(isinstance(d, str))
        if isinstance(d, str) or isinstance(dg, str):
            assert d == dg
            continue
        assert dg.positive_part == g(d.positive_part)
        mapped = {image_name[n]: c for n, c in d.negative_coeffs.items() if c > 0}
        assert mapped == {n: c for n, c in dg.negative_coeffs.items() if c > 0}
    assert 0 < sum(verdicts) < len(classes)  # both verdicts are exercised


def with_positive_coeffs(model, alpha):
    """The decomposition of `alpha` and its positive negative-part coefficients."""
    d = decompose(model, alpha)
    return d, {n: c for n, c in d.negative_coeffs.items() if c > 0}


@pytest.mark.parametrize("r", [5, 6, 7, 8])
def test_negative_part_is_convex_and_volume_is_differentiable(r):
    """On 60 seeded pairs of big classes at each r:

    - convexity (Boucksom, section 3): ``N(alpha + beta) <= N(alpha) + N(beta)``
      prime by prime;
    - the volume derivative (Boucksom-Favre-Jonsson, J. Algebraic Geom. 2009):
      near ``alpha`` the positive part is linear on a ray, so
      ``(vol(alpha + t beta) - vol(alpha)) / t - 2 q(Z(alpha), beta)`` is
      ``t k`` with one ``k`` at ``t = 10**-6`` and ``t = 10**-7``.
    """
    model = del_pezzo(r)
    rng = random.Random(100 + r)
    for _ in range(60):
        alpha, beta = effective_class(model, rng), effective_class(model, rng)
        d_alpha, n_alpha = with_positive_coeffs(model, alpha)
        _, n_beta = with_positive_coeffs(model, beta)
        _, n_sum = with_positive_coeffs(model, vec_add(alpha, beta))
        for name in n_sum.keys() | n_alpha.keys() | n_beta.keys():
            assert n_sum.get(name, 0) <= n_alpha.get(name, 0) + n_beta.get(name, 0)

        z = d_alpha.positive_part
        vol, slope = inner(model.form, z, z), 2 * inner(model.form, z, beta)
        ks = []
        for t in (Q(1, 10**6), Q(1, 10**7)):
            zt = decompose(model, combine(alpha, [(t, beta)])).positive_part
            ks.append(((inner(model.form, zt, zt) - vol) / t - slope) / t)
        assert ks[0] == ks[1]
