"""The benchmark's own reference checks and summary statistics.

Nothing here calls the library's arithmetic: pairings, Gram matrices and
definiteness are recomputed from the raw model data, so a defect in the
library's fast paths cannot also hide in the check that judges them.  A
decomposition is accepted exactly when it meets the conditions that make the
Zariski decomposition unique.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil
from statistics import median


def pair(form, u, v) -> Fraction:
    """``u^T Q v`` from the raw form entries."""
    total = Fraction(0)
    for ui, row in zip(u, form):
        if ui:
            total += ui * sum(q * vj for q, vj in zip(row, v) if vj)
    return total


def negative_definite(gram) -> bool:
    """Every pivot of plain Gaussian elimination is negative (Sylvester)."""
    m = [list(row) for row in gram]
    n = len(m)
    for k in range(n):
        p = m[k][k]
        if p >= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def decomposition_problem(model, alpha, positive, coeffs) -> str | None:
    """Why ``alpha = positive + sum(coeffs)`` is not the Zariski decomposition."""
    form = model.form.entries
    vecs = {p.name: p.vec for p in model.primes}
    unknown = [n for n in coeffs if n not in vecs]
    if unknown:
        return f"unknown primes {unknown}"
    total = list(positive)
    for name, c in coeffs.items():
        total = [t + c * x for t, x in zip(total, vecs[name])]
    if tuple(total) != tuple(alpha):
        return "positive part plus negative part differs from the class"
    if any(c < 0 for c in coeffs.values()):
        return "negative coefficient"
    support = [n for n, c in coeffs.items() if c]
    if any(pair(form, positive, vecs[n]) != 0 for n in support):
        return "positive part not orthogonal to the support"
    gram = [[pair(form, vecs[a], vecs[b]) for b in support] for a in support]
    if not negative_definite(gram):
        return "support Gram matrix not negative definite"
    if pair(form, positive, positive) < 0 or pair(form, positive, model.h) < 0:
        return "positive part outside the closed positive cone"
    if any(pair(form, positive, v) < 0 for v in vecs.values()):
        return "positive part not dual-nef"
    return None


def exceptional_families(model) -> list[tuple[str, ...]]:
    """Every prime subset with negative definite Gram matrix, by brute force."""
    form = model.form.entries
    primes = model.primes
    out = []
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            gram = [[pair(form, a.vec, b.vec) for b in subset] for a in subset]
            if negative_definite(gram):
                out.append(tuple(p.name for p in subset))
    return sorted(out)


def tail_rank(n: int) -> int:
    """The 1-based rank of the tail in ``n`` sorted samples.

    p99, or the highest quantile with ten samples above it: with fewer than
    1000 samples p99 has fewer than ten samples beyond it, so the rank drops
    to ``n - 10``.  Ten samples or fewer give the maximum.
    """
    return min(ceil(0.99 * n), n - 10) if n > 10 else n


def tail(values: list[float]) -> tuple[float, float]:
    """``(quantile, value)`` of the tail of ``values`` (see ``tail_rank``)."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    return rank / len(ordered), ordered[rank - 1]


def slowest(times: list[list[float]]) -> list[int]:
    """Indices of the ops with the highest median time, three times as many as lie beyond the tail."""
    n = len(times)
    count = min(n, 3 * max(n - tail_rank(n), 1))
    return sorted(sorted(range(n), key=lambda i: median(times[i]))[n - count:])


def latency_summary(times: list[list[float]]) -> dict:
    """Median and tail of operations, from each operation's times in seconds.

    An operation's latency is the median of its times.
    """
    latencies = [median(t) for t in times]
    quantile, worst = tail(latencies)
    return {
        "n": len(latencies),
        "runs": sum(len(t) for t in times),
        "p50_ms": median(latencies) * 1e3,
        "tail_quantile": quantile,
        "tail_ms": worst * 1e3,
    }
