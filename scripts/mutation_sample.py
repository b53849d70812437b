#!/usr/bin/env python3
"""Run the tier-1 suite against each mutant of a list and record what it did.

A mutant list is a JSON list of objects ``{"file": ..., "old": ..., "new": ...}``:
``file`` is a path relative to the checkout, and ``old`` is a piece of that file's
text that occurs in it exactly once, which the mutant replaces by ``new``.  Every
mutant is checked before any test runs.

The checkout's files that git does not ignore, committed or not, are copied once
into a temporary directory, so nothing that running left behind comes along; each
mutant is written into that copy, tested and undone there, so the checkout itself
is never touched.  The mutant lists under ``MUTANTS`` stay behind: tier-1 checks
each committed list against the source, which every mutant changes by design.
Each test run is

    PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1 python -m pytest -x -q -p no:cacheprovider

in the copy.  Without ``PYTHONDONTWRITEBYTECODE`` a same-size edit made within a
second of the last one could be served from a stale ``.pyc``.  A run that fails
kills the mutant; a run that passes lets it survive; a run still going after
``TIMEOUT_S`` seconds (180, about seven times the unmutated suite's 25 s on a
2-vCPU box) is stopped, with its process group, and counted as a hang.

The record written to ``--out`` (rewritten after every mutant, so an interrupted
sweep keeps what it measured) gives, per mutant, its site (file and line), the
``old`` and ``new`` text, the outcome (``killed``, ``survived`` or ``hang``), the
wall time in seconds and the first failing test, and the outcome counts.  Stdlib
only.

Usage:
    python3 scripts/mutation_sample.py MUTANTS.json --out RECORD.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = "scripts/mutants/"
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT_S = 180.0


def load_mutants(path: Path) -> list[dict]:
    """The mutant list, each with the 1-based line its ``old`` text starts on."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    for k, mutant in enumerate(mutants):
        text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        if (count := text.count(mutant["old"])) != 1:
            raise SystemExit(f"mutant {k}: `old` occurs {count} times in {mutant['file']}")
        mutant["line"] = text[:text.index(mutant["old"])].count("\n") + 1
    return mutants


def copy_checkout(dest: Path) -> None:
    """The files of the checkout that git lists as cached or untracked and not ignored,
    but for the mutant lists."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        # a deleted file is still cached
        if not name.startswith(MUTANTS) and (source := ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def first_failure(output: str) -> str | None:
    """The first test pytest reports as failed or erroring."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None


def run_suite(tree: Path) -> tuple[str, str | None]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(COMMAND, cwd=tree, env=env, text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hang", None
    if proc.returncode == 0:
        return "survived", None
    return "killed", first_failure(output)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutants", type=Path, help="the JSON list of mutants")
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    args = parser.parse_args(argv)
    mutants = load_mutants(args.mutants)
    record = {"command": ["python", *COMMAND[1:]], "timeout_s": TIMEOUT_S,
              "python": platform.python_version(), "cpus": os.cpu_count(), "mutants": []}
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        for k, mutant in enumerate(mutants):
            target = tree / mutant["file"]
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome, failure = run_suite(tree)
            finally:
                target.write_text(original, encoding="utf-8")
            record["mutants"].append({
                "file": mutant["file"], "line": mutant["line"], "old": mutant["old"],
                "new": mutant["new"], "outcome": outcome,
                "seconds": round(time.perf_counter() - start, 1), "first_failure": failure})
            record["outcomes"] = dict(Counter(m["outcome"] for m in record["mutants"]))
            args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
            print(f"{k + 1}/{len(mutants)} {mutant['file']}:{mutant['line']} {outcome}"
                  + (f" by {failure}" if failure else ""), flush=True)
    print(json.dumps(record["outcomes"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
