"""Every module uses each name it imports; the library reads no environment and
uses each private helper it defines; each script runs; the package loads a
submodule only when one of its names is used."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import zariski

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src/zariski").glob("*.py"))
MODULES = sorted(p for d in ("src/zariski", "scripts", "tests") for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_reads_no_environment(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in ENVIRONMENT_READS for alias in node.names)
    ]
    assert reads == []


def _mentions(node: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported under `node`."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    """A module-level ``_name`` that nothing in the library reads, outside its
    own definition, is a leftover."""
    library = sum((_mentions(ast.parse(p.read_text(encoding="utf-8"))) for p in LIBRARY),
                  Counter())
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own = _mentions(node)
        unused += [name for name in names if name.startswith("_")
                   and not name.startswith("__") and library[name] == own[name]]
    assert unused == []


def _raised(tree: ast.AST) -> set:
    """Names of the exception classes a module raises."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return raised


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_only_quadext_refuses_mixed_radicands(path):
    """One owner of the radicand rule: the ``QuadExt`` operation that mixes two
    radicands raises, and no other module checks for it first."""
    raises = "MixedRadicandError" in _raised(ast.parse(path.read_text(encoding="utf-8")))
    assert raises == (path.name == "exact.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_only_pairings_reads_the_prime_images(path):
    """One owner of the prime-pairing scan: ``ConeModel._pairings`` reads
    ``compiled.images``, and no other library code reads an attribute of that name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "ConeModel"
             for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "_pairings"]
    inside = {id(node) for fn in owner for node in ast.walk(fn)}
    reads = [(node.lineno, id(node) in inside) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "images"]
    assert [line for line, owned in reads if not owned] == []
    assert bool(reads) == bool(owner) == (path.name == "cone.py")


def test_the_certificate_reuses_the_loops_clearing_and_scan():
    """One clearing and one scan per vector: the certificate body ``engine._certify``
    clears, scans and pairs with ``h`` nothing itself, the `decompose` path never
    runs the standalone `verify_certificate`, and both entry points run the one body."""
    tree = ast.parse((ROOT / "src/zariski/engine.py").read_text(encoding="utf-8"))
    reads = {fn.name: _mentions(fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert [name for name in ("_cleared", "_pairings", "_closure_pairings")
            if reads["_certify"][name]] == []
    assert reads["decompose"]["verify_certificate"] == reads["_active_set"]["verify_certificate"] == 0
    assert reads["verify_certificate"]["_certify"] == reads["_active_set"]["_certify"] == 1


def test_the_loop_stays_in_integers():
    """Each round forms its residual already cleared: neither `_project_primes` nor the
    `while` loop of `_active_set` builds a ``Fraction`` or calls ``_cleared``."""
    tree = ast.parse((ROOT / "src/zariski/engine.py").read_text(encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    (loop,) = [node for node in ast.walk(fns["_active_set"]) if isinstance(node, ast.While)]
    calls = [(name, node.lineno) for part in (fns["_project_primes"], loop)
             for node in ast.walk(part) if isinstance(node, ast.Call)
             and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
             in ("Fraction", "_cleared")]
    assert calls == []


def _layer_functions() -> dict:
    """``LAYER_FUNCTIONS`` of the benchmark's span table, read without importing it."""
    tree = ast.parse((ROOT / "perfbench/spans.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "LAYER_FUNCTIONS"]
    return ast.literal_eval(value)


@pytest.mark.parametrize("layer, names", sorted(_layer_functions().items()))
def test_benchmark_span_names_resolve(layer, names):
    """The benchmark times these names by looking them up on ``zariski.<layer>``."""
    module = importlib.import_module(f"zariski.{layer}")
    missing = []
    for name in names:
        owner = module
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"zariski.{layer}.{name}")
    assert not missing, "the benchmark times names the library lacks: " + ", ".join(missing)


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """A new interpreter with `argv` that imports this checkout's ``src``, run
    from ``tests`` so that the data paths are relative."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT / "tests", env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["run_cutkosky.py", "--max-entry", "2"],
    ["oracle_sweep.py", "--models", "6", "--classes", "1"],
    ["command_phases.py", "--help"],
    ["bench_pairs.py", "--help"],
    ["mutation_sample.py", "--help"],
], ids=lambda argv: argv[0])
def test_scripts_run(argv):
    """Each script imports what it uses from the library and runs a small case."""
    proc = run_fresh(str(ROOT / "scripts" / argv[0]), *argv[1:])
    assert proc.returncode == 0, proc.stderr


# -- the lazy package ------------------------------------------------------------


_COMMANDS_THEN_MODULES = """
import contextlib, io, json, sys
import zariski
loaded = [sorted(m for m in sys.modules if m.startswith("zariski"))]
from zariski.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded.append(sorted(m for m in sys.modules if m.startswith("zariski")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_model_commands_load_neither_bundle_nor_fixtures(tmp_path):
    classes = tmp_path / "classes.json"
    classes.write_text('[["1", "2"], ["-1", "0"], ["2", "1"]]')
    commands = [
        ["decompose", "--model", "data/s1.json", "--class=1,2"],
        ["check", "--model", "data/s1.json", "--decomposition", "data/dec_s1.json"],
        ["chambers", "--model", "data/s1.json", "--classes", str(classes)],
        ["validate", "--model", "data/s1.json"],
        ["exceptional", "--model", "data/s1.json"],
    ]
    proc = run_fresh("-c", _COMMANDS_THEN_MODULES, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(commands)
    after_package, after_commands = out["loaded"]
    assert after_package == ["zariski"]
    assert "zariski.cli" in after_commands
    assert {"zariski.bundle", "zariski.fixtures"}.isdisjoint(after_commands)


@pytest.mark.parametrize("argv, code, expected", [
    (["cutkosky", "--base", "1,2,1"], 0, "cutkosky_121"),
    (["fixtures", "--spec", "3,2,42"], 0, "fixtures_3_2_42"),
    (["fixtures", "--spec", "2,6,1"], 3, "spec too tight"),
], ids=["cutkosky", "fixtures", "fixtures-too-tight"])
def test_bundle_and_fixtures_commands_from_a_fresh_process(argv, code, expected):
    proc = run_fresh("-c", "from zariski.cli import entry; entry()", *argv)
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stdout)
    report.pop("timing_ms")
    if code == 0:
        golden = json.loads((ROOT / "tests/golden" / f"{expected}.json").read_text())
        assert golden["argv"] == argv
        assert report == golden["report"]
    else:
        assert report["error"]["category"] == "invalid-input"
        assert expected in report["error"]["message"]


def test_each_public_name_is_its_home_modules_object():
    """The benchmark's tracer wraps every binding that is the original object."""
    assert set(zariski._HOME.values()) == {"bundle", "cone", "engine", "exact", "fixtures",
                                            "serialize"}
    strangers = [
        name for name in zariski.__all__
        if getattr(zariski, name) is not getattr(
            importlib.import_module(f"zariski.{zariski._HOME[name]}"), name)
        or vars(zariski)[name] is not getattr(zariski, name)  # kept after the first lookup
    ]
    assert strangers == []


def test_star_import_and_dir_cover_every_public_name():
    namespace: dict = {}
    exec("from zariski import *", namespace)
    assert len(zariski.__all__) == 54
    assert set(zariski.__all__) <= set(namespace)
    assert set(zariski.__all__) <= set(dir(zariski))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zariski.no_such_name
    assert not hasattr(zariski, "no_such_name")
