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
``time.process_time_ns`` in milliseconds.

The cold columns are the same command as a fresh ``python -m zariski.cli``
process (``cold``) and a bare ``python -c pass`` (``python``), each the
median user and system CPU time of 15 children in milliseconds.  Under the
table, each rank's ``python -X importtime`` child lists the ``zariski``
modules that command loads, with their own import time in milliseconds
(the median of 3 children); ``zariski.cli`` itself runs as ``__main__`` and
is not imported, so it is not listed.  Stdlib only.

Usage:
    PYTHONPATH=src python3 scripts/command_phases.py
    PYTHONPATH=src python3 scripts/command_phases.py --ranks 6 7 --repeat 500
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
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
    load_model,
    parse_class_literal,
    to_text,
)

PHASES = ("argv", "load_model", "validate", "decompose", "render")
COLD = ("cold", "python")
COLD_STARTS = 15
IMPORT_RUNS = 3


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


def child(args: list[str]) -> tuple[subprocess.CompletedProcess, int]:
    """``python args`` run to the end, and the user and system CPU time it used in ns."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    used = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc, round(used * 1e9)


def cold_starts(argv: list[str]) -> dict[str, float]:
    """Median child CPU time of the command in a fresh process and of a bare Python."""
    commands, bare = [], []
    for _ in range(COLD_STARTS):
        proc, used = child(["-m", "zariski.cli", *argv])
        if proc.returncode != 0:
            raise SystemExit(f"cold command {argv} exited {proc.returncode}")
        commands.append(used)
        bare.append(child(["-c", "pass"])[1])
    return {"cold": median(commands) / 1e6, "python": median(bare) / 1e6}


def cold_imports(argv: list[str]) -> dict[str, float]:
    """The ``zariski`` modules a fresh command loads, each with its median own
    import time in ms (``-X importtime``'s self column)."""
    runs: dict[str, list[int]] = {}
    for _ in range(IMPORT_RUNS):
        proc, _ = child(["-X", "importtime", "-m", "zariski.cli", *argv])
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "zariski" in line:
                own, _, name = (cell.strip() for cell in line[12:].split("|"))
                runs.setdefault(name, []).append(int(own))
    return {name: median(times) / 1e3 for name, times in runs.items()}


def measure(r: int, workdir: Path, repeat: int) -> dict:
    model = del_pezzo(r)
    path = workdir / f"del_pezzo_{r}.json"
    dump_model(model, path)
    alpha = [2 * h + a + b for h, a, b in zip(model.h, model.primes[0].vec,
                                               model.primes[-1].vec)]
    literal = ",".join(to_text(x) for x in alpha)
    argv = ["decompose", "--model", str(path), f"--class={literal}"]
    for _ in range(3):  # warm the parser and the interpreter's caches
        phases_once(argv)
        command_once(argv)
    runs = [phases_once(argv) for _ in range(repeat)]
    commands = [command_once(argv) for _ in range(repeat)]
    row = {name: median(t[name] for t in runs) / 1e6 for name in PHASES}
    row["command"] = median(commands) / 1e6
    row.update(cold_starts(argv))
    return {"r": r, "primes": len(model.primes), **row, "imports": cold_imports(argv)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args()
    columns = ("r", "primes", *PHASES, "command", *COLD)
    print("  ".join(f"{c:>10}" for c in columns), "  command/decompose")
    imports = {}
    with tempfile.TemporaryDirectory(prefix="command-phases-") as tmp:
        for r in args.ranks:
            row = measure(r, Path(tmp), args.repeat)
            cells = [f"{row['r']:>10}", f"{row['primes']:>10}",
                     *(f"{row[c]:>10.3f}" for c in (*PHASES, "command", *COLD))]
            print("  ".join(cells), f"  {row['command'] / row['decompose']:>17.1f}")
            imports[r] = row["imports"]
    print("\nzariski modules a cold decompose loads, own import ms:")
    for r, modules in imports.items():
        print(f"  r = {r}: " + ", ".join(f"{name} {ms:.2f}" for name, ms in modules.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
