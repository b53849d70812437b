"""The summary that ``scripts/bench_pairs.py`` writes, on hand-made runs."""
from __future__ import annotations

import runpy
from pathlib import Path

summarize = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts/bench_pairs.py"))["summarize"]


def _side(attempted: int, rate: float, rss: float) -> dict:
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {"decompose_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summarize_two_pairs():
    runs = [
        {"seed": 1, "first": "parent",
         "parent": _side(100, 10.0, 50.0), "change": _side(150, 15.0, 55.0)},
        {"seed": 2, "first": "change",
         "parent": _side(120, 12.0, 52.0), "change": _side(130, 11.0, 51.0)},
    ]
    metrics = [
        {"name": "decompose_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    ]
    summary = summarize(runs, metrics)
    assert set(summary) == {"metrics", "attempted"}
    # two values: the median is their mean, the quartiles lie outside them
    # (the "exclusive" method of statistics.quantiles)
    assert summary["attempted"] == {
        "parent": {"median": 110, "q1": 95.0, "q3": 125.0},
        "change": {"median": 140, "q1": 125.0, "q3": 155.0},
    }
    rate = summary["metrics"]["decompose_per_s"]
    assert rate["parent"] == {"median": 11.0, "q1": 9.5, "q3": 12.5}
    assert rate["change"]["median"] == 13.0
    assert rate["relative_change"] == 13.0 / 11.0 - 1
    assert rate["parent_iqr_over_median"] == 3.0 / 11.0
    assert (rate["wins"], rate["pairs"], rate["bound"]) == (1, 2, 0.1)
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change"]["median"] == 53.0 and rss["wins"] == 1 and rss["better"] == "lower"


def test_summarize_one_pair_has_no_spread():
    runs = [{"seed": 1, "first": "parent",
             "parent": _side(7, 1.0, 1.0), "change": _side(9, 2.0, 1.0)}]
    metrics = [{"name": "decompose_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]
    summary = summarize(runs, metrics)
    assert summary["attempted"]["change"] == {"median": 9, "q1": 9, "q3": 9}
    assert summary["metrics"]["decompose_per_s"]["wins"] == 1
