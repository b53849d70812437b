"""Command-line interface: golden reports, exit codes, round trips."""
from __future__ import annotations

import argparse
import contextlib
import json
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zariski import (
    CanonicalizationWarning,
    FixtureSpec,
    bundle,
    cli,
    dump_model,
    decomposition_from_json,
    decomposition_to_json,
    decompose,
    exact,
    gen_model,
    load_model,
    model_from_json,
    model_to_json,
    serialize,
)
from zariski.cli import main
from zariski.serialize import (
    FormatError,
    parse_base_literal,
    parse_class_literal,
    parse_rational,
)

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


def test_cached_parser_leaks_nothing_between_commands(monkeypatch, capsys):
    """Every golden, replayed forward and then in reverse in one process, is
    printed byte for byte; a ``--max-size --pretty`` command before each one
    carries neither option over; usage errors and help still behave after
    them, and the parser is built once."""
    builds = Counter()
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds["parser"] += 1
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli._parser.cache_clear()
    goldens = [json.loads((TESTS_DIR / "golden" / f"{n}.json").read_text())
               for n in GOLDEN_NAMES]
    for doc in goldens + goldens[::-1]:
        code = main(["exceptional", "--model", "data/affine_a2.json",
                     "--max-size", "1", "--pretty"])
        assert code == 0
        assert "max_size: 1" in capsys.readouterr().out
        code = main(doc["argv"])
        out = capsys.readouterr().out
        assert code == doc["exit_code"]
        timing = json.loads(out)["timing_ms"]
        assert out == json.dumps({**doc["report"], "timing_ms": timing}, indent=2) + "\n"
    test_usage_errors_exit_invalid_input(capsys)
    test_help_exits_zero(capsys)
    assert builds == {"parser": 1}
    assert cli._parser.cache_info().misses == 1


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
    assert main(["decompose", "--json", "--model", "data/s1.json", "--class=1,2"]) == 3
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
SEVENS = "7" * 2500
DEC_S1_VOLUME_9 = {**DEC_S1, "alpha": ["3", "1"], "positive_part": ["3", "0"],
                   "negative_part": {"E": "1"}, "volume": "9"}


@pytest.mark.parametrize(
    "content, argv, fragment",
    [
        (json.dumps({**DEC_S1, "iterations": "abc"}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "iterations must be an integer"),
        (b'{"rank": 2, "form": "\xff"}',
         ["decompose", "--model", "{file}", "--class=1,2"], "not valid UTF-8"),
        (None, ["exceptional", "--model", "data/s2.json", "--max-size", "-3"],
         "--max-size must be nonnegative"),
        (json.dumps({**DEC_S1, "iterations": True}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "iterations must be an integer"),
        (json.dumps({"rank": True, "form": [["1"]], "primes": {},
                     "ample": ["1"]}).encode(),
         ["validate", "--model", "{file}"], "rank must be a positive integer"),
        (json.dumps({"rank": 1, "form": [["1"]], "primes": {},
                     "ample": ["1"], "m": True}).encode(),
         ["validate", "--model", "{file}"], "m must be a positive integer"),
        # past the interpreter's 4300-digit int<->str limit
        (None, ["decompose", "--model", "data/s1.json", f"--class={SEVENS},0"],
         "too large to print"),
        (None, ["decompose", "--model", "data/s1.json", f"--class=-{SEVENS},0"],
         "too large to print"),
        (None, ["decompose", "--model", "data/s1.json", "--class=1e4300,0"],
         "not a rational: '1e4300'"),
        (f"[[{'7' * 4400}, 0]]".encode(),
         ["chambers", "--model", "data/s1.json", "--classes", "{file}"], "digits"),
        (None, ["cutkosky", "--base", f"1,{'7' * 2200},1"], "too large to print"),
        # q(Z,Z) = 9 to the power m = 10**12, refused before the power is taken
        (None, ["decompose", "--model", "data/s1_huge_m.json", "--class=3,1"],
         "too large to print"),
        (json.dumps(DEC_S1_VOLUME_9).encode(),
         ["check", "--model", "data/s1_huge_m.json", "--decomposition", "{file}"],
         "too large to print"),
    ],
    ids=["text-iterations", "non-utf8-file", "negative-max-size", "boolean-iterations",
         "boolean-rank", "boolean-m", "huge-volume", "huge-refusal-detail",
         "exponent-literal", "huge-json-integer", "huge-cutkosky-base",
         "huge-m-decompose", "huge-m-check"],
)
def test_bad_input_is_invalid_input(content, argv, fragment, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    # the huge base's radicand has no prime factor below the trial-division bound
    warns = (pytest.warns(CanonicalizationWarning) if argv[0] == "cutkosky"
             else contextlib.nullcontext())
    with warns:
        code, report = run_cli([a.replace("{file}", str(path)) for a in argv], capsys)
    assert code == 3
    assert report["error"]["category"] == "invalid-input"
    assert fragment in report["error"]["message"]


def test_huge_m_prints_a_unit_volume(tmp_path, capsys):
    code, report = run_cli(
        ["decompose", "--model", "data/s1_huge_m.json", "--class=1,0"], capsys
    )
    assert code == 0
    assert report["result"]["volume"] == "1"
    stored = tmp_path / "dec.json"
    stored.write_text(json.dumps(report["result"]))
    code, report = run_cli(
        ["check", "--model", "data/s1_huge_m.json", "--decomposition", str(stored)],
        capsys,
    )
    assert code == 0
    assert report["result"]["volume_recomputed"] == "1"


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
    assert doc.alpha == d.alpha
    assert doc.positive_part == d.positive_part
    assert doc.negative_coeffs == dict(d.negative_coeffs)
    assert doc.support == d.support
    assert doc.iterations == d.iterations
    assert doc.certificate == asdict(d.certificate)


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


def _reference_parse_rational(value: Any) -> Fraction:
    """``serialize.parse_rational`` as it was before its integer fast path."""
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    if isinstance(value, str) and "e" in value.lower():
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
    raise FormatError(f"expected a rational, got {type(value).__name__}")


def _outcome(parse, value) -> tuple:
    try:
        result = parse(value)
    except FormatError as exc:
        return ("refused", str(exc))
    return ("parsed", type(result), result)


# "\u0663" is the Arabic-Indic digit three, "\uff11" the fullwidth digit one
_LITERAL_EDGES = ["1_0", "1_0/3", "1__0", "_1", "1_", "\u0663", "\u0661\u0660/3", "1.5",
                  "-.5", "1/3", "1/0", "-0", "+0/5", "1e3", "1E3", "1e4300", "", " ",
                  "7" * 4300, "7" * 4301, "-" + "7" * 4301, True, False, 3, -0,
                  Fraction(2, 3), 1.5, None, ["1"]]
_padding = st.sampled_from(["", " ", "\t", "\n", "\u2003", "\x1c"])
_digits = st.integers(0, 10**6).flatmap(lambda n: st.sampled_from([str(n), f"{n:_}"]))
_literals = st.builds(
    lambda pad, sign, digits, tail, end: pad + sign + digits + tail + end,
    _padding, st.sampled_from(["", "-", "+", "--"]), _digits,
    st.sampled_from(["", "/3", "/0", "/1_0", ".5", "e3", "E3", "x"]), _padding,
)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(_LITERAL_EDGES) | _literals
    | st.text("0123456789_/.+-eE \t\u0663\uff11", max_size=10)
)
def test_parse_rational_agrees_with_the_reference(value):
    assert _outcome(parse_rational, value) == _outcome(_reference_parse_rational, value)


def test_load_model_coerces_each_entry_once(monkeypatch):
    produced = []

    def spy(value):
        produced.append(parse_rational(value))
        return produced[-1]

    monkeypatch.setattr(serialize, "parse_rational", spy)
    doc = json.loads((TESTS_DIR / "data" / "s1.json").read_text())
    model = load_model(TESTS_DIR / "data" / "s1.json")
    entries = [*doc["form"], *doc["primes"].values(), doc["ample"]]
    assert len(produced) == sum(len(vec) for vec in entries)
    loaded = [x for vec in (*model.form.entries, *(p.vec for p in model.primes), model.h)
              for x in vec]
    assert len(loaded) == len(produced)
    assert all(x is y for x, y in zip(loaded, produced))


def test_base_literal_parsing():
    base = parse_base_literal("1,2,1")
    assert (base.d_sq, base.dh, base.h_sq) == (1, 2, 1)
    with pytest.raises(FormatError):
        parse_base_literal("1,2")
    with pytest.raises(FormatError, match="index constraint"):
        parse_base_literal("1,1,2")


# -- rendering -----------------------------------------------------------------


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


def test_cutkosky_solves_each_quadratic_once(monkeypatch, capsys):
    """One threshold quadratic for the roots, one for the decomposition;
    each radicand is reduced where a quadratic produces it, not again."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(exact, "quadratic_roots")
    count(bundle, "quadratic_roots")
    count(exact, "split_square")
    code, _ = run_cli(["cutkosky", "--base", "1,2,1"], capsys)
    assert code == 0
    assert calls == {"quadratic_roots": 2, "split_square": 2}
