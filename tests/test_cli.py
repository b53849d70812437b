"""Command-line interface: golden reports, exit codes, round trips."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
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
SEVENS_4299 = "7" * 4299  # just under the interpreter's int<->str limit
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
        (b"[" * 5000 + b"]" * 5000,
         ["chambers", "--model", "data/s1.json", "--classes", "{file}"],
         "nested too deeply"),
        # q(E, F) = -SEVENS_4299**2 in the violation message
        (json.dumps({"rank": 2, "form": [["1", "0"], ["0", "-1"]], "ample": ["1", "0"],
                     "primes": {"E": [SEVENS_4299, SEVENS_4299],
                                "F": ["0", SEVENS_4299]}}).encode(),
         ["decompose", "--model", "{file}", "--class=1,0"], "must pair nonnegatively"),
        # the residual 1/(H + 2) - 1/H, H = SEVENS_4299, pairs with E to a
        # denominator of 8598 digits in the orthogonality message
        (json.dumps({**DEC_S1, "alpha": ["1", f"1/{SEVENS_4299[:-1]}9"],
                     "negative_part": {"E": f"1/{SEVENS_4299}"}}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "too large to print"),
        # JSON keeps the last of two equal keys, which would drop the first prime
        (b'{"rank": 2, "form": [["1", "0"], ["0", "-1"]], "ample": ["1", "0"], '
         b'"primes": {"E": ["0", "1"], "E": ["1", "1"]}}',
         ["validate", "--model", "{file}"], "duplicate key 'E'"),
        (b'[["1", "2"], {"a": "1", "a": "2"}]',
         ["chambers", "--model", "data/s1.json", "--classes", "{file}"],
         "duplicate key 'a'"),
        (json.dumps(DEC_S1).replace('"E": ', '"E": "0", "E": ', 1).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "duplicate key 'E'"),
        (b"\xef\xbb\xbf" + (TESTS_DIR / "data" / "s1.json").read_bytes(),
         ["decompose", "--model", "{file}", "--class=1,2"], "Unexpected UTF-8 BOM"),
        # q(Z, Z) = 7/16 - 3/2 * SEVENS_4299 has 4301 digits: the power guard
        # lets it through, and the check's message must refuse to print it
        (json.dumps({"rank": 2, "form": [["1", SEVENS_4299], [SEVENS_4299, "-1"]],
                     "primes": {}, "ample": ["1", "0"]}).encode(),
         ["check", "--model", "{file}", "--decomposition", "data/dec_no_primes.json"],
         "too large to print"),
        (json.dumps({**DEC_S1, "certificate": {"orthogonality_checked": "false",
                                               "bogus": [1]}}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "certificate must be an object of booleans"),
        (b'["1", "0"]', ["validate", "--model", "{file}"],
         "model document must be a JSON object"),
        (b'{"rank": 1, "form": [["1"]]}', ["validate", "--model", "{file}"],
         "model document lacks fields: ['ample', 'primes']"),
        (json.dumps({"rank": 2, "form": [["1", "0"]], "primes": {},
                     "ample": ["1", "0"]}).encode(),
         ["validate", "--model", "{file}"], "form must be a 2x2 matrix"),
        (json.dumps({"rank": 1, "form": [["1"]], "primes": [["E", ["1"]]],
                     "ample": ["1"]}).encode(),
         ["validate", "--model", "{file}"], "primes must be an object"),
        (b'["1", "2"]',
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "decomposition document must be a JSON object"),
        (json.dumps({k: v for k, v in DEC_S1.items() if k != "volume"}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "decomposition document lacks fields: ['volume']"),
        (json.dumps({**DEC_S1, "negative_part": [["E", "1"]]}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "negative_part must be an object"),
        (json.dumps({**DEC_S1, "support": [1]}).encode(),
         ["check", "--model", "data/s1.json", "--decomposition", "{file}"],
         "support must be a list of prime names"),
        (b'[["1", "2"], "1,2"]',
         ["chambers", "--model", "data/s1.json", "--classes", "{file}"],
         "expected a list of rationals, got str"),
        (b'[["1", "2", "3"]]',
         ["chambers", "--model", "data/s1.json", "--classes", "{file}"],
         "expected a vector of length 2, got 3"),
        (b"{}", ["validate", "--model", "{file}/x.json"], "Not a directory"),
        (b"{}", ["fixtures", "--spec", "3,2,7", "--out", "{file}/x.json"],
         "Not a directory"),
        (None, ["validate", "--model", "{dir}/loop"], "Too many levels of symbolic links"),
        (None, ["validate", "--model", "{dir}/" + "x" * 300 + ".json"],
         "File name too long"),
        (None, ["check", "--model", "data/s2.json", "--decomposition", "data/dec_s1.json"],
         "decomposition vectors do not match the model rank 3"),
    ],
    ids=["text-iterations", "non-utf8-file", "negative-max-size", "boolean-iterations",
         "boolean-rank", "boolean-m", "huge-volume", "huge-refusal-detail",
         "exponent-literal", "huge-json-integer", "huge-cutkosky-base",
         "huge-m-decompose", "huge-m-check", "deeply-nested-json",
         "huge-prime-pairing-message", "huge-orthogonality-message",
         "duplicate-prime-name", "duplicate-class-key", "duplicate-negative-part-key",
         "utf8-bom", "huge-recomputed-volume-check", "non-boolean-certificate",
         "model-not-object", "model-lacks-fields", "form-not-square", "primes-not-object",
         "decomposition-not-object", "decomposition-lacks-fields",
         "negative-part-not-object", "support-not-names", "class-not-list",
         "class-wrong-length", "model-under-a-file", "fixtures-out-under-a-file",
         "symlink-loop", "name-too-long", "check-rank-mismatch"],
)
def test_bad_input_is_invalid_input(content, argv, fragment, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    (tmp_path / "loop").symlink_to("loop")
    # the huge base's radicand has no prime factor below the trial-division bound
    warns = (pytest.warns(CanonicalizationWarning) if argv[0] == "cutkosky"
             else contextlib.nullcontext())
    with warns:
        code, report = run_cli(
            [a.replace("{file}", str(path)).replace("{dir}", str(tmp_path)) for a in argv],
            capsys,
        )
    assert code == 3
    assert report["error"]["category"] == "invalid-input"
    assert fragment in report["error"]["message"]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_pipe_ends_without_a_traceback(buffered):
    """A reader that closed the pipe gets the command's own exit code, no traceback.

    A buffered stdout fails at the flush, an unbuffered one at the write.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zariski.cli", "decompose", "--model", "data/s1.json",
             "--class=-1,0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 2


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


# -- input robustness --------------------------------------------------------------

# Vector entries, as written into a JSON file; the "<raw-…>" strings become bare
# JSON numbers of that many digits, one short of and one past the int<->str limit.
_RAW_NUMBERS = {"<raw-under>": SEVENS_4299, "<raw-past>": "7" * 4301}
_GOOD_ENTRIES = st.sampled_from(
    [0, 1, -2, "0", "1", "-1", "1/2", "-3/4", SEVENS_4299, f"-{SEVENS_4299}",
     f"1/{SEVENS_4299}", "<raw-under>"]
)
_BAD_ENTRIES = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1.5, True, False, None, [1], [[]], {},
     "1/0", "abc", "1e5", "", "7" * 4301, "<raw-past>"]
)
_JUNK_TEXTS = st.sampled_from(
    ["", "nope", "{", "[1, 2", "null", "1e999", "NaN", '{"rank": 2', "[" * 3000]
)
_JUNK_LITERALS = st.sampled_from(["", "x", "1,,2", "1e5", "1/0", "nan", "[1]", "1,true"])
_REQUIRED = {"model": ("rank", "form", "primes", "ample"),
             "classes": (),
             "decomposition": ("alpha", "positive_part", "negative_part", "support", "volume")}
_NUMERIC = {"model": ("rank", "form", "primes", "ample", "m"),
            "classes": None,
            "decomposition": ("alpha", "positive_part", "negative_part", "volume")}


def _json_text(doc) -> str:
    text = json.dumps(doc)
    for key, digits in _RAW_NUMBERS.items():
        text = text.replace(json.dumps(key), digits)
    return text


def _slots(doc, keys=None) -> list[tuple[Any, Any]]:
    """``(container, key)`` of every scalar under `keys` of `doc` (all of it if None)."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if keys is not None and key not in keys:
            continue
        if isinstance(value, (dict, list)):
            found.extend(_slots(value))
        else:
            found.append((doc, key))
    return found


def _vectors(doc, keys=None) -> list[list]:
    """The nonempty lists of scalars under `keys` of `doc`: the vectors a
    length defect can bend."""
    if isinstance(doc, list) and doc and not any(isinstance(v, (dict, list)) for v in doc):
        return [doc]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [vec for key, value in items if keys is None or key in keys
            if isinstance(value, (dict, list)) for vec in _vectors(value)]


@st.composite
def _cli_inputs(draw):
    """``(argv, files, malformed)``: one command over a model file and, for
    `chambers` and `check`, a second file; `malformed` says that one defect
    was put into the input the command reads last."""
    rank = draw(st.integers(1, 3))
    vector = st.lists(_GOOD_ENTRIES, min_size=rank, max_size=rank)
    form = [["1" if i == j == 0 else "-1" if i == j else "0" for j in range(rank)]
            for i in range(rank)]
    if rank > 1 and draw(st.booleans()):
        i, j = draw(st.sampled_from([(i, j) for i in range(rank) for j in range(i)]))
        form[i][j] = form[j][i] = draw(_GOOD_ENTRIES)
    docs = {"model": {"rank": rank, "form": form,
                      "primes": draw(st.dictionaries(st.sampled_from("EFG"), vector,
                                                     max_size=3)),
                      "ample": ["1"] + ["0"] * (rank - 1)}}
    if draw(st.booleans()):
        docs["model"]["m"] = draw(st.sampled_from([1, 2, 10**12]))
    command = draw(st.sampled_from(
        ["validate", "decompose", "exceptional", "chambers", "check"]))
    argv = [command, "--model", "model.json"]
    literal = ",".join(str(_RAW_NUMBERS.get(x, x)) for x in draw(vector))
    if command == "chambers":
        docs["classes"] = draw(st.lists(vector, max_size=3))
        argv += ["--classes", "classes.json"]
    elif command == "check":
        docs["decomposition"] = {
            "alpha": draw(vector), "positive_part": draw(vector),
            "negative_part": draw(st.dictionaries(st.sampled_from("EFX"), _GOOD_ENTRIES,
                                                  max_size=2)),
            "support": draw(st.lists(st.sampled_from("EF"), max_size=2)),
            "volume": draw(_GOOD_ENTRIES),
        }
        argv += ["--decomposition", "decomposition.json"]
    target = list(docs)[-1]
    doc = docs[target]
    defect = draw(st.sampled_from(
        ["none", "entry", "length", "missing", "asymmetric", "truncated", "junk",
         "literal", "duplicate-key", "bom"]))
    texts = {}
    if defect == "entry" and (slots := _slots(doc, _NUMERIC[target])):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(_BAD_ENTRIES)
    elif defect == "length" and (vectors := _vectors(doc, _NUMERIC[target])):
        bent = draw(st.sampled_from(vectors))
        bent.append("0") if draw(st.booleans()) else bent.pop()
    elif defect == "missing" and _REQUIRED[target]:
        del doc[draw(st.sampled_from(_REQUIRED[target]))]
    elif defect == "asymmetric" and target == "model" and rank > 1:
        form[1][0], form[0][1] = "1", "2"
    elif defect == "truncated":
        text = _json_text(doc)
        texts[target] = text[:draw(st.integers(0, len(text) - 1))]
    elif defect == "junk":
        texts[target] = draw(_JUNK_TEXTS)
    elif defect == "literal" and command == "decompose":
        literal = draw(_JUNK_LITERALS | st.just(",".join(["1"] * (rank + 1))))
    elif defect == "duplicate-key" and isinstance(doc, dict):
        key = draw(st.sampled_from(sorted(doc)))
        texts[target] = "{" + _json_text({key: doc[key]})[1:-1] + ", " + _json_text(doc)[1:]
    elif defect == "bom":
        texts[target] = "\ufeff" + _json_text(doc)
    else:
        defect = "none"
    if command == "decompose":
        argv.append(f"--class={literal}")
    files = {f"{name}.json": texts.get(name, _json_text(d)) for name, d in docs.items()}
    return argv, files, defect != "none"


@pytest.fixture(scope="module")
def robustness_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


@settings(max_examples=250, deadline=None)
@given(case=_cli_inputs())
def test_any_input_gets_one_report_and_an_exit_code(case, robustness_dir):
    """Whatever the files and literals hold, `main` returns and prints exactly
    one JSON report; a malformed input ends in exit 3 with a message."""
    argv, files, malformed = case
    for name, text in files.items():
        (robustness_dir / name).write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(robustness_dir / a) if a.endswith(".json") else a
                     for a in argv])
    report = json.loads(out.getvalue())
    assert report["command"] == argv[0]
    if "error" in report:
        error = report["error"]
        assert (error["category"], code) in {("invalid-input", 3),
                                             ("not-pseudo-effective", 2)}
        assert code == 2 or error["message"]
    else:  # exit 1 is a failed `check`, exit 3 a model that `validate` refuses
        assert code in (0, 1, 3)
        assert (code != 0) == (report["result"].get("ok") is False)
    if malformed:
        assert code == 3 and report["error"]["category"] == "invalid-input"


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


_ALL_PASSED = DEC_S1["certificate"]


@pytest.mark.parametrize(
    "certificate, violations",
    [
        ({"orthogonality_checked": False, "bogus": True},
         ["stored certificate is not the all-passed certificate"]),
        ({k: v for k, v in _ALL_PASSED.items() if k != "dual_nef_checked"},
         ["stored certificate is not the all-passed certificate"]),
        ({**_ALL_PASSED, "bogus": True},
         ["stored certificate is not the all-passed certificate"]),
        (None, []),
    ],
    ids=["false-and-unknown-key", "missing-key", "extra-key", "no-certificate"],
)
def test_check_refuses_a_stored_certificate_that_did_not_all_pass(
    certificate, violations, tmp_path, capsys
):
    doc = {k: v for k, v in DEC_S1.items() if k != "certificate"}
    if certificate is not None:
        doc["certificate"] = certificate
    stored = tmp_path / "dec.json"
    stored.write_text(json.dumps(doc))
    code, report = run_cli(
        ["check", "--model", "data/s1.json", "--decomposition", str(stored)], capsys
    )
    assert report["result"]["violations"] == violations
    assert code == (1 if violations else 0)
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
    assert doc.certificate == d.certificate._asdict()


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
    """Each distinct literal of a document is parsed once, each loaded entry is
    one of those Fractions, and the next load of the same file parses again."""
    produced: dict[str, list[Fraction]] = {}

    def spy(value):
        produced.setdefault(value, []).append(parse_rational(value))
        return produced[value][-1]

    monkeypatch.setattr(serialize, "parse_rational", spy)
    path = TESTS_DIR / "data" / "ten_primes.json"
    doc = json.loads(path.read_text())
    texts = [x for vec in (*doc["form"], *doc["primes"].values(), doc["ample"]) for x in vec]
    assert len(set(texts)) < len(texts)
    first = None
    for _ in range(2):
        produced.clear()
        model = load_model(path)
        assert sorted(produced) == sorted(set(texts))
        assert all(len(made) == 1 for made in produced.values())
        loaded = [x for vec in (*model.form.entries, *(p.vec for p in model.primes), model.h)
                  for x in vec]
        assert len(loaded) == len(texts)
        assert all(x is produced[text][0] for x, text in zip(loaded, texts))
        if first is not None:
            assert all(x is not y for x, y in zip(loaded, first))
        first = loaded


def test_each_command_reads_the_model_file_as_it_stands(tmp_path, capsys):
    """A file rewritten between two commands in one process gives the new answer."""
    path = tmp_path / "model.json"
    text = (TESTS_DIR / "data" / "s1.json").read_text()
    argv = ["decompose", "--model", str(path), "--class=1,2"]
    volumes = []
    # diag(1, -1), then diag(2, -1): same size, same path, q(Z, Z) goes 1 -> 2
    for form in ('[["1", "0"], ["0", "-1"]]', '[["2", "0"], ["0", "-1"]]'):
        path.write_text(text.replace('[["1", "0"], ["0", "-1"]]', form))
        code, report = run_cli(argv, capsys)
        assert code == 0
        volumes.append(report["result"]["volume"])
    assert volumes == ["1", "2"]


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
