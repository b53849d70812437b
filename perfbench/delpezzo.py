"""Del Pezzo lattices ``I_{1,r}`` with ``h = -K`` and their (-1)-classes.

A class ``dH - sum(m_i E_i)`` is stored as the vector ``(d, -m_1, ..., -m_r)``
against the form ``diag(1, -1, ..., -1)``, so ``q(v, v) = d^2 - sum(m_i^2)``
and ``q(-K, v) = 3d - sum(m_i)``.  The (-1)-classes are the solutions of
``d^2 - sum(m_i^2) = -1`` and ``3d - sum(m_i) = 1``; for r = 1..8 there are
1, 3, 6, 10, 16, 27, 56 and 240 of them.

``del_pezzo(r)`` has the signature planned for ``zariski.fixtures.del_pezzo``,
so the benchmark can switch to the library's version once it exists.
"""
from __future__ import annotations

from math import isqrt

from zariski import ConeModel, cone_model

EXPECTED_PRIME_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def _degree_bound(r: int) -> int:
    """Largest d allowed by Cauchy-Schwarz: (3d - 1)^2 <= r (d^2 + 1)."""
    d = 0
    while (3 * (d + 1) - 1) ** 2 <= r * ((d + 1) ** 2 + 1):
        d += 1
    return d


def exceptional_classes(r: int) -> list[tuple[int, ...]]:
    """Every (-1)-class of the blow-up of P^2 in r general points, sorted."""
    if not 1 <= r <= 8:
        raise ValueError(f"del Pezzo surfaces need 1 <= r <= 8, got {r}")
    out = []
    for d in range(_degree_bound(r) + 1):
        want_sum, want_sq = 3 * d - 1, d * d + 1

        def assign(prefix: list[int], total: int, squares: int) -> None:
            left = r - len(prefix)
            if left == 0:
                if total == want_sum and squares == want_sq:
                    out.append((d, *(-m for m in prefix)))
                return
            # the remaining entries need (sum)^2 <= count * (sum of squares)
            if (want_sum - total) ** 2 > left * (want_sq - squares):
                return
            for m in range(-1, isqrt(want_sq - squares) + 1):
                assign(prefix + [m], total + m, squares + m * m)

        assign([], 0, 0)
    return sorted(out)


def del_pezzo(r: int) -> ConeModel:
    """The model ``I_{1,r}`` with ``h = -K`` and every (-1)-class as a prime."""
    classes = exceptional_classes(r)
    form = [[(1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)]
            for i in range(r + 1)]
    primes = [(f"e{k + 1}", vec) for k, vec in enumerate(classes)]
    return cone_model(form, primes, [3] + [-1] * r)
