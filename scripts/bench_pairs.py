#!/usr/bin/env python3
"""Run the benchmark on alternating parent/change pairs and summarize them.

Both sides run from ``git archive`` exports in a temporary directory, as a
fresh checkout would hold them: the parent from its commit, the change from
a snapshot of the working tree this script lives in (every file that is not
ignored, committed or not), so files that running leaves in the checkout,
such as ``perfbench/out/``, reach neither side.  The workloads and the run
length are those of ``BENCHMARK.json`` (``workloads``, ``run_seconds``).
Each pair runs ``perfbench/run.py`` unchanged, once in each tree, with the
same seed; the side that goes first alternates from pair to pair.  The summary gives, per
workload and end-to-end metric (the ``end_to_end`` list), the median and
quartiles of each side, the relative change of the medians, and how many
pairs the change won.  It is rewritten after every pair, so an interrupted
sweep keeps what it measured.

The record names the measured change by ``src_tree``, the git tree hash of
``src`` in that snapshot; once the change is committed,
``git rev-parse <commit>:src`` gives the same hash.

Usage:
    python3 scripts/bench_pairs.py --out BENCH.json
    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 101 --out BENCH.json

``--parent`` defaults to ``HEAD``, which compares uncommitted edits with the
last commit; pass ``HEAD~1`` to measure a committed change.  Seeds run from
``--seed`` upwards, one per pair.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True, env=env).stdout.strip()


def snapshot() -> str:
    """Tree hash of the whole working tree, built in a scratch index."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", env=env)
        return git("write-tree", env=env)


def export(rev: str, dest: Path) -> None:
    """The files of the commit or tree `rev`, written under `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result object and machine record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, text=True, capture_output=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    machine = next(json.loads(line.split(": ", 1)[1]) for line in lines
                   if line.startswith("machine: "))
    return {"machine": machine, **json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and wins over the pairs in `runs`."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs]
        before = spread([p for p, _ in pairs])
        after = spread([c for _, c in pairs])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": before,
            "change": after,
            "relative_change": (after["median"] / before["median"] - 1
                                if before["median"] else None),
            "parent_iqr_over_median": ((before["q3"] - before["q1"]) / before["median"]
                                       if before["median"] else None),
            "wins": sum((c > p) if higher else (c < p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    # a stop by SIGTERM unwinds like Ctrl-C: subprocess.run kills the running
    # child, and both export directories are removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    parent_rev = git("rev-parse", args.parent)
    change_tree = snapshot()
    record = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "src_tree": git("rev-parse", f"{change_tree}:src"),
                   "uncommitted": bool(git("status", "--porcelain"))},
        "seconds": seconds,
        "seeds": list(range(args.seed, args.seed + args.pairs)),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree, change_root = Path(tmp) / "parent", Path(tmp) / "change"
        export(parent_rev, parent_tree)
        export(change_tree, change_root)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for k, seed in enumerate(record["seeds"]):
                sides = [("parent", parent_tree), ("change", change_root)]
                result = {"seed": seed, "first": sides[k % 2][0]}
                for side, tree in sides if k % 2 == 0 else reversed(sides):
                    result[side] = run_once(tree, workload, seed, seconds)
                record["machine"] = {k: v for k, v in result["change"].pop("machine").items()
                                     if k != "seed"}
                result["parent"].pop("machine")
                runs.append(result)
                record["workloads"][workload] = {"metrics": summarize(runs, metrics),
                                                 "runs": runs}
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} seed {seed}: pair {k + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
