"""The benchmark's own test.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Every
workload runs at a tiny size; the test asserts that each metric
``BENCHMARK.json`` names is printed with its unit, and that the correctness
gate fails when an expected answer or the library's answer is wrong.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import delpezzo  # noqa: E402
import workloads  # noqa: E402
from zariski import engine  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.2, trace=trace, tiny=True)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert f"{metric['name']}: {printed['value']} {metric['unit']}" in lines
    for metric in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][metric["name"]]["value"] > 0


def test_a_wrong_expected_answer_fails(monkeypatch, capsys):
    monkeypatch.setitem(workloads.EXPECTED["del_pezzo_families"], "3", 19)
    result = run.run("delpezzo", seed=0, seconds=0.2, trace=0, tiny=True)
    assert not result["correct"] and result["failed"] > 0
    assert "failed_share: 0.0 " not in capsys.readouterr().out


def test_a_wrong_library_answer_fails(monkeypatch):
    decompose = engine.decompose

    def off_by_one(model, alpha):
        dec = decompose(model, alpha)
        return dataclasses.replace(dec, positive_part=(dec.positive_part[0] + 1, *dec.positive_part[1:]))

    monkeypatch.setattr(engine, "decompose", off_by_one)
    result = run.run("pool", seed=0, seconds=0.2, trace=0, tiny=True)
    assert not result["correct"] and result["failed"] > 0


def test_del_pezzo_models_have_the_known_prime_counts():
    for r, count in delpezzo.EXPECTED_PRIME_COUNTS.items():
        classes = delpezzo.exceptional_classes(r)
        assert len(classes) == len(set(classes)) == count
        for d, *m in classes:
            assert d * d - sum(x * x for x in m) == -1
            assert 3 * d + sum(m) == 1
    for r in range(1, 7):
        assert delpezzo.del_pezzo(r).validate().ok


def test_seed_zero_grid_is_the_test_suite_pool():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert workloads.grid_specs(200) == conftest.grid_specs(200)
