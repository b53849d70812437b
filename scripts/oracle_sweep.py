#!/usr/bin/env python3
"""Cross-check the active-set engine against exhaustive search at scale.

Generates a deterministic grid of random Lorentzian models, draws
pseudo-effective classes on each, decomposes every class twice — once with
the production engine, once by exhaustive enumeration over all candidate
supports — and insists on exact agreement.  Prints a chamber-size histogram
and timing summary.  Exits nonzero on any disagreement.

Usage:
    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --models 500 --classes 10 --seed 7000
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from zariski import (
    brute_force_decompose,
    decompose,
    gen_model,
    gen_pseudoeffective_class,
    spec_grid,
)


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
    mismatches = 0
    cases = 0
    for spec in spec_grid(args.models, args.seed, args.max_rank):
        model = gen_model(spec)
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
    if mismatches:
        print(f"{mismatches} disagreements", file=sys.stderr)
        return 1
    print("engine agrees with exhaustive search on every case")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
