"""Acceptance gate: one test per shipping criterion, self-contained.

Each test prints a single ``criterion-N: PASS`` line (visible with ``-s``);
under ``pytest -v`` the per-test PASSED/FAILED line serves the same purpose.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

from zariski import (
    BaseSurface,
    QuadExt,
    brute_force_decompose,
    cone_model,
    decompose,
    decompose_bundle,
    enumerate_exceptional_families,
    gen_model,
    gen_pseudoeffective_class,
    is_rational,
    load_model,
    mu_L,
    spec_grid,
    volume,
    volume_L,
)
from zariski.bundle import L
from zariski.cli import main
from zariski.exact import as_vector, gram_matrix, inner, is_negative_definite

from conftest import is_exceptional_family, vec_add, vec_scale

TESTS_DIR = Path(__file__).parent


def best_of(runs: int, fn) -> float:
    """Wall-clock seconds of the fastest of `runs` executions of fn()."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_worked_decomposition_rank2():
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, [1, 0])
    d = decompose(model, [1, 2])
    assert d.positive_part == as_vector([1, 0])
    assert d.negative_coeffs == {"E": Q(2)}
    assert volume(model, [1, 2]) == Q(1)
    assert d.certificate.orthogonality_checked
    assert d.certificate.gram_negative_definite_checked
    assert d.certificate.effectivity_checked
    assert d.certificate.dual_nef_checked
    assert d.certificate.all_passed
    elapsed = best_of(3, lambda: decompose(model, [1, 2]))
    assert elapsed < 0.010, f"decomposition took {elapsed * 1000:.3f} ms"
    print("criterion-1: PASS")


def test_criterion_2_worked_decomposition_rank3_two_iterations():
    model = cone_model(
        [[2, 0, 0], [0, -2, 1], [0, 1, -2]],
        [("c1", [0, 1, 0]), ("c2", [0, 0, 1])],
        [1, 0, 0],
    )
    d = decompose(model, [1, 2, 1])
    assert d.positive_part == as_vector([1, 0, 0])
    assert d.negative_coeffs == {"c1": Q(2), "c2": Q(1)}
    assert d.iterations == 2
    assert volume(model, [1, 2, 1]) == Q(2)
    print("criterion-2: PASS")


def test_criterion_3_irrational_volume_reproduction():
    base = BaseSurface(1, 2, 1)
    mu = mu_L(base)
    vol = volume_L(base)
    # (3 + sqrt(3)) / 6 and sqrt(3) / 6, exactly
    assert mu == QuadExt(Q(1, 2), Q(1, 6), 3)
    assert vol == QuadExt(0, Q(1, 6), 3)
    assert not is_rational(mu)
    assert not is_rational(vol)
    z, s = decompose_bundle(base, L)
    assert s == mu
    assert (z.t, z.x, z.y) == (1 - mu, mu, Q(0))

    square = BaseSurface(1, 1, 1)
    assert mu_L(square) == Q(1, 2)
    assert volume_L(square) == Q(1, 2)
    assert is_rational(volume_L(square))

    def run():
        mu_L(base)
        volume_L(base)

    elapsed = best_of(3, run)
    assert elapsed < 0.010, f"bundle computation took {elapsed * 1000:.3f} ms"
    print("criterion-3: PASS")


def test_criterion_4_oracle_equivalence_under_60s():
    started = time.perf_counter()
    model_count = 0
    case_count = 0
    for spec in spec_grid(200):
        model = gen_model(spec)
        model_count += 1
        for k in range(5):
            alpha = gen_pseudoeffective_class(model, spec.seed * 10 + k)
            fast = decompose(model, alpha)
            slow = brute_force_decompose(model, alpha)  # raises if not unique
            assert fast.positive_part == slow.positive_part
            assert {n: c for n, c in fast.negative_coeffs.items() if c > 0} == dict(
                slow.negative_coeffs
            )
            case_count += 1
    elapsed = time.perf_counter() - started
    assert model_count >= 200 and case_count >= 1000
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f} s"
    print(f"criterion-4: PASS ({case_count} cases in {elapsed:.1f} s)")


def test_criterion_5_property_suite(pool, pool_decompositions):
    # reconstruction, orthogonality, negative definite support, support size
    basic = 0
    for model, alpha, d in pool_decompositions:
        reconstructed = d.positive_part
        for name, coeff in d.negative_coeffs.items():
            vec = model.prime_vec[name]
            reconstructed = vec_add(reconstructed, vec_scale(coeff, vec))
        assert reconstructed == alpha
        for name in d.support:
            vec = model.prime_vec[name]
            assert inner(model.form, d.positive_part, vec) == 0
        support_vecs = [model.prime_vec[n] for n in d.support]
        assert is_negative_definite(gram_matrix(model.form, support_vecs).cleared[0])
        assert len(d.support) <= model.rank
        basic += 1
    assert basic >= 500

    # homogeneity N(t*alpha) = t*N(alpha)
    scales = [Q(2), Q(1, 2), Q(7, 3), Q(5, 4), Q(3)]
    homogeneous = 0
    for idx, (model, alpha, d) in enumerate(pool_decompositions):
        t = scales[idx % len(scales)]
        d2 = decompose(model, vec_scale(t, alpha))
        assert dict(d2.negative_coeffs) == {
            n: t * c for n, c in d.negative_coeffs.items()
        }
        assert d2.positive_part == vec_scale(t, d.positive_part)
        homogeneous += 1
    assert homogeneous >= 500

    # subadditivity N(a+b) <= N(a) + N(b), coefficientwise
    subadditive = 0
    by_model: dict[int, list] = {}
    for model, alpha, d in pool_decompositions:
        by_model.setdefault(id(model), (model, []))[1].append((alpha, d))
    for model, items in by_model.values():
        for (a, da), (b, db) in combinations(items, 2):
            dab = decompose(model, vec_add(a, b))
            names = set(dab.negative_coeffs) | set(da.negative_coeffs) | set(
                db.negative_coeffs
            )
            for n in names:
                lhs = dab.negative_coeffs.get(n, Q(0))
                rhs = da.negative_coeffs.get(n, Q(0)) + db.negative_coeffs.get(n, Q(0))
                assert lhs <= rhs
            subadditive += 1
    assert subadditive >= 500

    # idempotence and volume invariance
    projected = 0
    for model, alpha, d in pool_decompositions:
        z = d.positive_part
        assert decompose(model, z).positive_part == z
        assert volume(model, alpha) == volume(model, z)
        projected += 1
    assert projected >= 500

    # result is independent of the prime listing order
    shuffled = 0
    for model, alpha, d in pool_decompositions:
        if len(model.primes) < 2:
            continue
        reordered = cone_model(
            model.form.entries,
            [(p.name, p.vec) for p in reversed(model.primes)],
            model.h,
            model.m,
        )
        d2 = decompose(reordered, alpha)
        assert d2.positive_part == d.positive_part
        assert dict(d2.negative_coeffs) == dict(d.negative_coeffs)
        shuffled += 1
    assert shuffled >= 500

    # enumerated exceptional families are fixed points of the negative part
    draws = [Q(1), Q(1, 2), Q(2), Q(3, 2), Q(5, 3), Q(4, 7)]
    fixed = 0
    models = [model for _, model, _ in pool]
    for model in models:
        for family in enumerate_exceptional_families(model):
            if not family:
                continue
            for offset in range(2):
                coeffs = {
                    name: draws[(j + offset) % len(draws)]
                    for j, name in enumerate(family)
                }
                alpha = (Q(0),) * model.rank
                for name, c in coeffs.items():
                    vec = model.prime_vec[name]
                    alpha = vec_add(alpha, vec_scale(c, vec))
                d = decompose(model, alpha)
                assert d.positive_part == (Q(0),) * model.rank
                assert dict(d.negative_coeffs) == coeffs
                assert sorted(d.support) == sorted(family)
                fixed += 1
    assert fixed >= 500
    print(
        "criterion-5: PASS "
        f"(basic={basic}, homogeneity={homogeneous}, subadditivity={subadditive}, "
        f"idempotence={projected}, shuffle={shuffled}, fixed-point={fixed})"
    )


def test_criterion_6_exceptional_family_enumeration(pool, s2, affine_a2, ten_primes):
    assert enumerate_exceptional_families(s2) == [
        (),
        ("c1",),
        ("c1", "c2"),
        ("c2",),
    ]
    affine = enumerate_exceptional_families(affine_a2)
    assert ("c1", "c2", "c3") not in affine
    assert sorted(affine) == sorted(
        [(), ("c1",), ("c2",), ("c3",), ("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
    )

    def naive(model):
        names = model.prime_names()
        out = [()]
        for size in range(1, model.rank + 1):
            out.extend(
                s
                for s in combinations(names, size)
                if is_exceptional_family(model, s)
            )
        return out

    checked = 0
    for model in [s2, affine_a2, ten_primes] + [m for _, m, _ in pool]:
        assert len(model.primes) <= 10
        assert sorted(enumerate_exceptional_families(model)) == sorted(naive(model))
        checked += 1
    assert checked >= 200
    print(f"criterion-6: PASS ({checked} models, pruned == naive)")


def test_criterion_7_cli_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    golden_files = sorted((TESTS_DIR / "golden").glob("*.json"))
    commands_seen = set()
    codes_seen = set()
    for path in golden_files:
        doc = json.loads(path.read_text())
        code = main(doc["argv"])
        report = json.loads(capsys.readouterr().out)
        report.pop("timing_ms")
        assert code == doc["exit_code"], path.name
        assert report == doc["report"], path.name
        commands_seen.add(doc["argv"][0])
        codes_seen.add(code)
    assert {
        "decompose",
        "exceptional",
        "chambers",
        "cutkosky",
        "check",
        "validate",
    } <= commands_seen
    assert codes_seen == {0, 1, 2, 3}

    # lossless round trips: report -> check, model -> disk -> model
    code = main(["decompose", "--model", "data/s2.json", "--class=1,2,1"])
    result = json.loads(capsys.readouterr().out)["result"]
    stored = tmp_path / "dec.json"
    stored.write_text(json.dumps(result))
    code = main(["check", "--model", "data/s2.json", "--decomposition", str(stored)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["result"]["ok"] is True

    model = load_model("data/s2.json")
    from zariski import dump_model

    path = tmp_path / "model.json"
    dump_model(model, path)
    assert load_model(path) == model
    print(
        f"criterion-7: PASS ({len(golden_files)} golden reports, "
        f"exit codes {sorted(codes_seen)})"
    )
