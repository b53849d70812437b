#!/usr/bin/env python3
"""Cross-check the active-set engine against the oracle's family search.

Generates a deterministic grid of random Lorentzian models and decomposes
classes on each twice: once with the production engine, once with
``brute_force_decompose``, which searches every exceptional family (it
reaches del Pezzo r = 6).  Per model it draws pseudo-effective classes, where
the two must give the same answer, and as many arbitrary integer classes
(entries in [-4, 4], seeded from the spec), where they must also agree on
the verdict: both decompose, with the same answer, or both refuse.  Also
checks on every model that ``enumerate_exceptional_families`` lists exactly
the prime subsets whose Gram matrix is negative definite, in lexicographic
order.  Prints chamber-size, family-count and refusal-reason histograms and
a timing summary.  Exits nonzero on any disagreement.

Usage:
    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --models 500 --classes 10 --seed 7000
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from itertools import combinations

from zariski import (
    NotPseudoEffectiveError,
    brute_force_decompose,
    decompose,
    enumerate_exceptional_families,
    gen_model,
    gen_pseudoeffective_class,
    spec_grid,
)
from zariski.exact import gram_matrix, is_negative_definite


def naive_families(model) -> list[tuple[str, ...]]:
    """Every prime subset up to the rank with a negative definite Gram,
    in the lexicographic order of prime indices."""
    names = model.prime_names()
    subsets = [
        s
        for size in range(model.rank + 1)
        for s in combinations(range(len(names)), size)
        if is_negative_definite(gram_matrix(model.form, [model.primes[i].vec for i in s]).cleared[0])
    ]
    return [tuple(names[i] for i in s) for s in sorted(subsets)]


def outcome(solver, model, alpha):
    """The decomposition `solver` returns, or the refusal it raises."""
    try:
        return solver(model, alpha)
    except NotPseudoEffectiveError as exc:
        return exc


def disagree(spec, alpha, fast, slow) -> int:
    """0 when engine and oracle both refuse or give the same decomposition;
    otherwise print both outcomes and return 1."""
    refused = [isinstance(x, NotPseudoEffectiveError) for x in (fast, slow)]
    if all(refused):
        return 0
    if not any(refused) and fast.positive_part == slow.positive_part and {
        n: c for n, c in fast.negative_coeffs.items() if c > 0
    } == dict(slow.negative_coeffs):
        return 0
    engine, oracle = (
        f"refused ({x.reason})" if r
        else f"{x.positive_part} / {dict(x.negative_coeffs)}"
        for x, r in zip((fast, slow), refused)
    )
    print(
        f"MISMATCH spec={spec} class={alpha}:\n  engine: {engine}\n  oracle: {oracle}",
        file=sys.stderr,
    )
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=200, help="models to generate")
    parser.add_argument("--classes", type=int, default=5, help="classes per model")
    parser.add_argument("--seed", type=int, default=1000, help="base seed")
    parser.add_argument(
        "--max-rank", type=int, default=6, choices=range(2, 7), help="largest rank"
    )
    args = parser.parse_args()

    started = time.perf_counter()
    support_sizes: Counter[int] = Counter()
    iteration_counts: Counter[int] = Counter()
    family_counts: Counter[int] = Counter()
    verdicts: Counter[str] = Counter()
    mismatches = 0
    cases = 0
    for spec in spec_grid(args.models, args.seed, args.max_rank):
        model = gen_model(spec)
        families, naive = enumerate_exceptional_families(model), naive_families(model)
        if families != naive:
            mismatches += 1
            print(
                f"MISMATCH spec={spec} exceptional families:\n"
                f"  walk:  {families}\n"
                f"  naive: {naive}",
                file=sys.stderr,
            )
        family_counts[len(families)] += 1
        for k in range(args.classes):
            alpha = gen_pseudoeffective_class(model, spec.seed * 10 + k)
            fast = decompose(model, alpha)
            slow = brute_force_decompose(model, alpha)
            mismatches += disagree(spec, alpha, fast, slow)
            support_sizes[len(fast.support)] += 1
            iteration_counts[fast.iterations] += 1
        draw = random.Random(spec.seed)
        for _ in range(args.classes):
            alpha = tuple(draw.randint(-4, 4) for _ in range(model.rank))
            fast = outcome(decompose, model, alpha)
            refused = isinstance(fast, NotPseudoEffectiveError)
            verdicts[fast.reason if refused else "decomposed"] += 1
            mismatches += disagree(spec, alpha, fast,
                                   outcome(brute_force_decompose, model, alpha))
        cases += 2 * args.classes
    elapsed = time.perf_counter() - started

    print(f"{args.models} models, {cases} classes, {elapsed:.2f} s")
    print("support sizes: ", dict(sorted(support_sizes.items())))
    print("iteration counts:", dict(sorted(iteration_counts.items())))
    print("family counts: ", dict(sorted(family_counts.items())))
    print("arbitrary verdicts:", dict(sorted(verdicts.items())))
    if mismatches:
        print(f"{mismatches} disagreements", file=sys.stderr)
        return 1
    print("engine agrees with the family search on every case and family list")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
