"""Every module uses each name it imports; the library reads no environment."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src/zariski", "scripts", "tests") for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


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


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src/zariski").glob("*.py")), ids=lambda p: p.name
)
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
