#!/usr/bin/env python3
"""Cross-check the active-set engine against exhaustive search at scale.

Generates a deterministic grid of random Lorentzian models, draws
pseudo-effective classes on each, decomposes every class twice — once with
the production engine, once by exhaustive enumeration over all candidate
supports — and insists on exact agreement.  Also checks on every model that
``enumerate_exceptional_families`` lists exactly the prime subsets that pass
``is_exceptional_family``, in lexicographic order.  Prints chamber-size and
family-count histograms and a timing summary.  Exits nonzero on any
disagreement.

Usage:
    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --models 500 --classes 10 --seed 7000
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from itertools import combinations

from zariski import (
    brute_force_decompose,
    decompose,
    enumerate_exceptional_families,
    gen_model,
    gen_pseudoeffective_class,
    is_exceptional_family,
    spec_grid,
)


def naive_families(model) -> list[tuple[str, ...]]:
    """Every prime subset up to the rank with a negative definite Gram,
    in the lexicographic order of prime indices."""
    names = model.prime_names()
    subsets = [
        s
        for size in range(model.rank + 1)
        for s in combinations(range(len(names)), size)
        if is_exceptional_family(model, [names[i] for i in s])
    ]
    return [tuple(names[i] for i in s) for s in sorted(subsets)]


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
            agree = fast.positive_part == slow.positive_part and {
                n: c for n, c in fast.negative_coeffs.items() if c > 0
            } == dict(slow.negative_coeffs)
            if not agree:
                mismatches += 1
                print(
                    f"MISMATCH spec={spec} class={alpha}:\n"
                    f"  engine: {fast.positive_part} / {dict(fast.negative_coeffs)}\n"
                    f"  oracle: {slow.positive_part} / {dict(slow.negative_coeffs)}",
                    file=sys.stderr,
                )
            support_sizes[len(fast.support)] += 1
            iteration_counts[fast.iterations] += 1
            cases += 1
    elapsed = time.perf_counter() - started

    print(f"{args.models} models, {cases} classes, {elapsed:.2f} s")
    print("support sizes: ", dict(sorted(support_sizes.items())))
    print("iteration counts:", dict(sorted(iteration_counts.items())))
    print("family counts: ", dict(sorted(family_counts.items())))
    if mismatches:
        print(f"{mismatches} disagreements", file=sys.stderr)
        return 1
    print("engine agrees with exhaustive search on every case and family list")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
