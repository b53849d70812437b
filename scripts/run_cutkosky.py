#!/usr/bin/env python3
"""Sweep projective-bundle volume computations over base-surface pairings.

For each base surface (given by the pairings D^2, D.H, H^2 of two ample
classes) the script decomposes the tautological class L, reports the nef
threshold mu, the Zariski class, and the exact volume, and flags whether
the volume is rational.  The default sweep includes the pairing (1, 2, 1),
where the volume is sqrt(3)/6 — a big class with irrational volume.

Usage:
    python3 scripts/run_cutkosky.py
    python3 scripts/run_cutkosky.py --base 9,3,1 --base 1,2,1
    python3 scripts/run_cutkosky.py --max-entry 3
"""
from __future__ import annotations

import argparse

from zariski import decimal_approx, decompose_bundle, intersect3, is_rational
from zariski.bundle import L
from zariski.serialize import parse_base_literal

DEFAULT_BASES = ["1,1,1", "4,2,1", "1,2,1", "1,3,1", "2,3,4", "9,3,1"]


def sweep_bases(max_entry: int) -> list[str]:
    out = []
    for d_sq in range(1, max_entry + 1):
        for dh in range(1, max_entry + 1):
            for h_sq in range(1, max_entry + 1):
                if d_sq * h_sq <= dh * dh:
                    out.append(f"{d_sq},{dh},{h_sq}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base",
        action="append",
        default=None,
        metavar="Dsq,DH,Hsq",
        help="base pairings to run (repeatable); default: a curated list",
    )
    parser.add_argument(
        "--max-entry",
        type=int,
        default=None,
        metavar="N",
        help="sweep every admissible integral pairing with entries <= N (N >= 0)",
    )
    args = parser.parse_args()
    if args.max_entry is not None and args.max_entry < 0:
        parser.error(f"--max-entry must be nonnegative, got {args.max_entry}")

    literals = args.base or (
        sweep_bases(args.max_entry) if args.max_entry is not None else DEFAULT_BASES
    )
    header = (
        f"{'base':>10} | {'mu':>22} | {'mu ~':>14} | "
        f"{'volume':>22} | {'volume ~':>14} | rational"
    )
    print(header)
    print("-" * len(header))
    irrational = 0
    for literal in literals:
        base = parse_base_literal(literal)
        z, mu = decompose_bundle(base, L)
        vol = intersect3(base, z, z, z)
        rational = is_rational(vol)
        irrational += not rational
        print(
            f"{literal:>10} | {str(mu):>22} | {decimal_approx(mu):>14} | "
            f"{str(vol):>22} | {decimal_approx(vol):>14} | "
            f"{'yes' if rational else 'NO'}"
        )
        if not rational:
            print(
                f"{'':>10} | Zariski class: ({z.t}) L + ({z.x}) pi*D + ({z.y}) pi*H"
            )
    print(
        f"\n{len(literals)} bases, {irrational} with irrational volume."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
