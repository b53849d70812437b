"""Command-line interface: golden reports, exit codes, round trips."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from zariski import (
    FixtureSpec,
    dump_model,
    decomposition_from_json,
    decomposition_to_json,
    decompose,
    gen_model,
    load_model,
    model_from_json,
    model_to_json,
    rebuild_decomposition,
)
from zariski.cli import main
from zariski.serialize import FormatError, parse_base_literal, parse_class_literal

TESTS_DIR = Path(__file__).parent
GOLDEN_NAMES = sorted(p.stem for p in (TESTS_DIR / "golden").glob("*.json"))


@pytest.fixture(autouse=True)
def _run_from_tests_dir(monkeypatch):
    """Reports echo the paths they were invoked with; keep them relative."""
    monkeypatch.chdir(TESTS_DIR)


def run_cli(argv, capsys) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- golden reports -----------------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_report(name, capsys):
    doc = json.loads((TESTS_DIR / "golden" / f"{name}.json").read_text())
    code, report = run_cli(doc["argv"], capsys)
    assert isinstance(report.pop("timing_ms"), (int, float))
    assert code == doc["exit_code"]
    assert report == doc["report"]


def test_golden_corpus_covers_all_exit_codes():
    codes = {
        json.loads((TESTS_DIR / "golden" / f"{n}.json").read_text())["exit_code"]
        for n in GOLDEN_NAMES
    }
    assert codes == {0, 1, 2, 3}


# -- exit code categories -------------------------------------------------------


def test_usage_errors_exit_invalid_input(capsys):
    assert main([]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["decompose", "--model", "data/s1.json"]) == 3  # missing --class
    assert main(["decompose", "--model", "data/s1.json", "--class=1,2",
                 "--json", "--pretty"]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


def test_missing_file_is_invalid_input(capsys):
    code, report = run_cli(["decompose", "--model", "data/nope.json", "--class=1,2"], capsys)
    assert code == 3
    assert report["error"]["category"] == "invalid-input"


def test_wrong_rank_class_is_invalid_input(capsys):
    code, report = run_cli(["decompose", "--model", "data/s1.json", "--class=1,2,3"], capsys)
    assert code == 3
    assert "expects 2" in report["error"]["message"]


def test_malformed_json_reports_position(capsys):
    bad = TESTS_DIR / "data" / "bad_form.json"
    code, report = run_cli(["decompose", "--model", str(bad), "--class=1,2"], capsys)
    assert code == 3
    assert report["error"]["category"] == "invalid-input"


def test_classes_file_must_be_array(tmp_path, capsys):
    path = tmp_path / "classes.json"
    path.write_text('{"not": "a list"}')
    code, report = run_cli(
        ["chambers", "--model", "data/s2.json", "--classes", str(path)], capsys
    )
    assert code == 3
    assert "array" in report["error"]["message"]


DEC_S1 = json.loads((TESTS_DIR / "data" / "dec_s1.json").read_text())


@pytest.mark.parametrize(
    "bound, content, argv, fragment",
    [
        (None, json.dumps({**DEC_S1, "iterations": "abc"}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "iterations must be an integer"),
        (None, b'{"rank": 2, "form": "\xff"}',
         ["decompose", "--model", "{file}", "--class=1,2"], "not valid UTF-8"),
        ("abc", None, ["cutkosky", "--base", "1,2,1"], "must be an integer"),
        ("0", None, ["cutkosky", "--base", "1,2,1"], "must be positive"),
    ],
    ids=["text-iterations", "non-utf8-file", "bound-not-integer", "bound-zero"],
)
def test_bad_input_is_invalid_input(bound, content, argv, fragment, tmp_path,
                                    monkeypatch, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    if bound is not None:
        monkeypatch.setenv("ZARISKI_SQUAREFREE_BOUND", bound)
    code, report = run_cli([a.replace("{file}", str(path)) for a in argv], capsys)
    assert code == 3
    assert report["error"]["category"] == "invalid-input"
    assert fragment in report["error"]["message"]


def test_infeasible_fixture_spec_is_invalid_input(capsys):
    code, report = run_cli(["fixtures", "--spec", "2,6,3"], capsys)
    assert code == 3
    assert "spec too tight" in report["error"]["message"]


# -- round trips -------------------------------------------------------------------


def test_decompose_report_passes_check(tmp_path, capsys):
    code, report = run_cli(
        ["decompose", "--model", "data/s2.json", "--class=1,2,1"], capsys
    )
    assert code == 0
    stored = tmp_path / "dec.json"
    stored.write_text(json.dumps(report["result"]))
    code, report = run_cli(
        ["check", "--model", "data/s2.json", "--decomposition", str(stored)], capsys
    )
    assert code == 0
    assert report["result"]["ok"] is True
    assert report["result"]["violations"] == []
    assert all(report["certificate"].values())


def test_model_file_round_trip(tmp_path, s2):
    path = tmp_path / "model.json"
    dump_model(s2, path)
    assert load_model(path) == s2
    assert model_from_json(model_to_json(s2)) == s2


def test_fixtures_out_writes_loadable_model(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code, report = run_cli(["fixtures", "--spec", "3,2,42", "--out", str(out)], capsys)
    assert code == 0
    assert report["result"]["written"] == str(out)
    model = load_model(out)
    assert model == gen_model(FixtureSpec(rank=3, prime_count=2, seed=42))
    assert main(["validate", "--model", str(out)]) == 0
    capsys.readouterr()


def test_decomposition_document_round_trip(s2):
    d = decompose(s2, [1, 2, 1])
    doc = decomposition_from_json(decomposition_to_json(s2, d))
    rebuilt = rebuild_decomposition(s2, doc)
    assert rebuilt.alpha == d.alpha
    assert rebuilt.positive_part == d.positive_part
    assert rebuilt.negative_coeffs == dict(d.negative_coeffs)
    assert rebuilt.support == d.support
    assert rebuilt.iterations == d.iterations
    assert rebuilt.certificate == d.certificate


# -- literals --------------------------------------------------------------------


def test_class_literal_parsing():
    from fractions import Fraction as Q

    assert parse_class_literal("1,-2,5/3") == (Q(1), Q(-2), Q(5, 3))
    assert parse_class_literal(" 1 , 0 ") == (Q(1), Q(0))
    with pytest.raises(FormatError):
        parse_class_literal("")
    with pytest.raises(FormatError):
        parse_class_literal("1,x")
    with pytest.raises(FormatError, match="expects 3"):
        parse_class_literal("1,2", rank=3)


def test_base_literal_parsing():
    base = parse_base_literal("1,2,1")
    assert (base.d_sq, base.dh, base.h_sq) == (1, 2, 1)
    with pytest.raises(FormatError):
        parse_base_literal("1,2")
    with pytest.raises(FormatError, match="index constraint"):
        parse_base_literal("1,1,2")


# -- rendering and environment -----------------------------------------------------


def test_pretty_rendering_smoke(capsys):
    code = main(["decompose", "--model", "data/s1.json", "--class=1,2", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "positive_part:" in out
    assert "{" not in out
    code = main(["cutkosky", "--base", "1,2,1", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "volume_decimal: 0.288675134595" in out


def test_squarefree_bound_override_changes_radicand_not_value(monkeypatch, capsys):
    import warnings

    monkeypatch.setenv("ZARISKI_SQUAREFREE_BOUND", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, report = run_cli(["cutkosky", "--base", "1,2,1"], capsys)
    assert code == 0
    mu = report["result"]["mu"]
    assert mu["d"] == 12  # 12 = 4 * 3 left unsplit under the tiny bound
    assert mu["b"] == "1/12"
    assert report["result"]["mu_decimal"] == "0.788675134595"
    assert report["result"]["volume_decimal"] == "0.288675134595"
