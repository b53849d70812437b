#!/usr/bin/env python3
"""Median process time of each phase of an in-process ``zariski decompose``.

For each del Pezzo model (``fixtures.del_pezzo(r)``, h = -K) the model file
is written once; then every repeat runs the phases of one ``decompose``
command on a fresh load, as ``cli.main`` does:

    argv       parsing the arguments and the class literal
    load_model reading and coercing the model file
    validate   the cone-axiom report (the integer view and the signature)
    decompose  ``engine.decompose`` on the loaded model
    render     the report dict and its indented JSON text

and, apart from them, the whole command through ``cli.main`` with stdout
captured.  The class is ``2h + e1 + e2``.  Times are medians of
``time.process_time_ns`` in milliseconds.  Stdlib only.

Usage:
    PYTHONPATH=src python3 scripts/command_phases.py
    PYTHONPATH=src python3 scripts/command_phases.py --ranks 6 7 --repeat 500
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path
from statistics import median
from time import process_time_ns

from zariski import cli
from zariski.engine import decompose
from zariski.fixtures import del_pezzo
from zariski.serialize import (
    decomposition_to_json,
    dump_model,
    format_rational,
    load_model,
    parse_class_literal,
)

PHASES = ("argv", "load_model", "validate", "decompose", "render")


def phases_once(argv: list[str]) -> dict[str, int]:
    """One command's phases, each timed in process-time nanoseconds."""
    times, t = {}, process_time_ns()

    def lap(name: str) -> None:
        nonlocal t
        now = process_time_ns()
        times[name], t = now - t, now

    args = cli._parser().parse_args(argv)
    alpha = parse_class_literal(getattr(args, "class"))
    lap("argv")
    model = load_model(args.model)
    lap("load_model")
    model.require_valid()
    lap("validate")
    dec = decompose(model, alpha)
    lap("decompose")
    result = decomposition_to_json(model, dec)
    report = {"command": args.command, "result": result,
              "certificate": result["certificate"]}
    json.dumps(report, indent=2)
    lap("render")
    return times


def command_once(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        start = process_time_ns()
        code = cli.main(argv)
        elapsed = process_time_ns() - start
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}")
    return elapsed


def measure(r: int, workdir: Path, repeat: int) -> dict[str, float]:
    model = del_pezzo(r)
    path = workdir / f"del_pezzo_{r}.json"
    dump_model(model, path)
    alpha = [2 * h + a + b for h, a, b in zip(model.h, model.primes[0].vec,
                                               model.primes[-1].vec)]
    literal = ",".join(format_rational(x) for x in alpha)
    argv = ["decompose", "--model", str(path), f"--class={literal}"]
    for _ in range(3):  # warm the parser and the interpreter's caches
        phases_once(argv)
        command_once(argv)
    runs = [phases_once(argv) for _ in range(repeat)]
    commands = [command_once(argv) for _ in range(repeat)]
    row = {name: median(t[name] for t in runs) / 1e6 for name in PHASES}
    row["command"] = median(commands) / 1e6
    return {"r": r, "primes": len(model.primes), **row}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args()
    columns = ("r", "primes", *PHASES, "command")
    print("  ".join(f"{c:>10}" for c in columns), "  command/decompose")
    with tempfile.TemporaryDirectory(prefix="command-phases-") as tmp:
        for r in args.ranks:
            row = measure(r, Path(tmp), args.repeat)
            cells = [f"{row['r']:>10}", f"{row['primes']:>10}",
                     *(f"{row[c]:>10.3f}" for c in (*PHASES, "command"))]
            print("  ".join(cells), f"  {row['command'] / row['decompose']:>17.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
