#!/usr/bin/env python3
"""Median process time of each phase of an in-process ``zariski decompose`` and ``cutkosky``.

For each del Pezzo model (``fixtures.del_pezzo(r)``, h = -K) the model file
is written once; then every repeat runs the phases of one ``decompose``
command on a fresh load, as ``cli.main`` does:

    argv       parsing the arguments and the class literal
    load_model reading and coercing the model file
    compile    building ``model.compiled``, the integer view
    checks     the rest of the cone-axiom report (the signature and the sign tests)
    decompose  ``engine.decompose`` on the loaded model
    render     the report dict and its indented JSON text

and, apart from them, the whole command through ``cli.main`` with stdout
captured.  The class is ``2h + e1 + e2``; its rendered report is checked
once against the one the command prints.  Times are medians of
``time.process_time_ns`` in milliseconds.

The cold columns are the same command as a fresh ``python -m zariski.cli``
process (``cold``) and a bare ``python -c pass`` (``python``), each the
median user and system CPU time of 15 children in milliseconds.  Under the
table, each rank's ``python -X importtime`` child lists the ``zariski``
modules that command loads, with their own import time in milliseconds
(the median of 3 children); ``zariski.cli`` itself runs as ``__main__`` and
is not imported, so it is not listed.

Last, the phases of ``zariski cutkosky`` over the 121 bases of
``scripts/run_cutkosky.py``'s sweep (every admissible base with entries
<= 6), each run ``CUTKOSKY_PASSES`` times: the medians over those commands of

    argv         parsing the arguments and the base literal
    roots_split  L's threshold quadratic, its roots and the split at the larger
    volume       the cube of the nef part, ``intersect3(base, z, z, z)``
    render       the report's fields and its indented JSON text

and of the whole command through ``cli.main``.  The rendered result is
checked once per base against the one the command prints.  Stdlib only.

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
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import process_time_ns

from zariski import bundle, cli
from zariski.engine import decompose
from zariski.fixtures import del_pezzo
from zariski.serialize import (
    decomposition_to_json,
    dump_model,
    load_model,
    parse_base_literal,
    parse_class_literal,
    to_text,
)

PHASES = ("argv", "load_model", "compile", "checks", "decompose", "render")
COLD = ("cold", "python")
COLD_STARTS = 15
IMPORT_RUNS = 3
CUTKOSKY_PHASES = ("argv", "roots_split", "volume", "render")
CUTKOSKY_PASSES = 9


def stopwatch():
    """``(times, lap)``: ``lap(name)`` records the process time in nanoseconds
    since the previous lap, or since the call, under ``times[name]``."""
    times, last = {}, [process_time_ns()]

    def lap(name: str) -> None:
        now = process_time_ns()
        times[name], last[0] = now - last[0], now

    return times, lap


def phases_once(argv: list[str]) -> tuple[dict[str, int], str]:
    """One ``decompose`` command's phases, each timed in process-time nanoseconds,
    and the report's text."""
    times, lap = stopwatch()
    args = cli._parser().parse_args(argv)
    alpha = parse_class_literal(getattr(args, "class"))
    lap("argv")
    model = load_model(args.model)
    lap("load_model")
    model.compiled
    lap("compile")
    model.require_valid()
    lap("checks")
    dec = decompose(model, alpha)
    lap("decompose")
    result = decomposition_to_json(model, dec)
    report = {"command": args.command, "result": result,
              "certificate": result["certificate"]}
    text = json.dumps(report, indent=2)
    lap("render")
    return times, text


def cutkosky_once(argv: list[str]) -> tuple[dict[str, int], str]:
    """One ``cutkosky`` command's phases, as ``cli.cmd_cutkosky`` runs them,
    and the report's text."""
    times, lap = stopwatch()
    base = parse_base_literal(cli._parser().parse_args(argv).base)
    lap("argv")
    roots, z, mu = bundle._threshold_split(base, bundle.L)
    lap("roots_split")
    vol = bundle.intersect3(base, z, z, z)
    lap("volume")
    result = cli._cutkosky_result(base, roots, z, mu, vol)
    text = json.dumps({"command": "cutkosky", "result": result}, indent=2)
    lap("render")
    return times, text


def command_once(argv: list[str]) -> tuple[int, str]:
    """The process time of ``cli.main(argv)`` in nanoseconds, and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = process_time_ns()
        code = cli.main(argv)
        elapsed = process_time_ns() - start
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}")
    return elapsed, out.getvalue()


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
    _, text = phases_once(argv)
    if json.loads(text)["result"] != json.loads(command_once(argv)[1])["result"]:
        raise SystemExit(f"the rendered phase of {argv} differs from the command's report")
    for _ in range(3):  # warm the parser and the interpreter's caches
        phases_once(argv)
        command_once(argv)
    runs = [phases_once(argv)[0] for _ in range(repeat)]
    commands = [command_once(argv)[0] for _ in range(repeat)]
    row = {name: median(t[name] for t in runs) / 1e6 for name in PHASES}
    row["command"] = median(commands) / 1e6
    row.update(cold_starts(argv))
    return {"r": r, "primes": len(model.primes), **row, "imports": cold_imports(argv)}


def measure_cutkosky() -> dict[str, float]:
    """Median phase and command times over the sweep's bases, in milliseconds."""
    sweep = runpy.run_path(str(Path(__file__).with_name("run_cutkosky.py")))["sweep_bases"]
    argvs = [["cutkosky", "--base", base] for base in sweep(6)]
    for argv in argvs:  # warm up, and render what the command prints
        _, text = cutkosky_once(argv)
        if json.loads(text)["result"] != json.loads(command_once(argv)[1])["result"]:
            raise SystemExit(f"the rendered phase of {argv} differs from the command's report")
    runs, commands = [], []
    for _ in range(CUTKOSKY_PASSES):
        runs += [cutkosky_once(argv)[0] for argv in argvs]
        commands += [command_once(argv)[0] for argv in argvs]
    row = {name: median(t[name] for t in runs) / 1e6 for name in CUTKOSKY_PHASES}
    row["command"] = median(commands) / 1e6
    return {"bases": len(argvs), **row}


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
    row = measure_cutkosky()
    columns = (*CUTKOSKY_PHASES, "command")
    print(f"\ncutkosky, median ms over {row['bases']} sweep bases x {CUTKOSKY_PASSES} passes:")
    print("  ".join(f"{c:>11}" for c in columns))
    print("  ".join(f"{row[c]:>11.3f}" for c in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
