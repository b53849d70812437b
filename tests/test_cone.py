"""Model validation, the integer view, and cone membership predicates."""
from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zariski import (
    InvalidModelError,
    cone_model,
    decompose,
    del_pezzo,
    enumerate_exceptional_families,
)
from zariski import cone
from zariski.cone import CompiledModel, PrimeClass
from zariski.exact import dot, inner

from conftest import vec_add, vec_scale


def test_s1_is_valid_with_boundary_warning(s1):
    report = s1.validate()
    assert report.ok
    assert report.violations == ()
    assert any("orthogonal to h" in w for w in report.warnings)


def test_s2_and_affine_are_valid(s2, affine_a2):
    assert s2.validate().ok
    assert affine_a2.validate().ok


def test_validate_rejects_non_lorentzian_signature():
    model = cone_model([[1, 0], [0, 1]], {}, [1, 0])
    report = model.validate()
    assert not report.ok
    assert any("signature" in v for v in report.violations)


def test_validate_rejects_a_degenerate_form_with_one_positive_direction():
    """A zero eigenvalue is not Lorentzian, though the positive index is 1."""
    model = cone_model([[1, 0, 0], [0, -1, 0], [0, 0, 0]], {}, [1, 0, 0])
    assert model.validate().violations == (
        "form has signature (1, 1, 1), expected Lorentzian (1, 2, 0)",
    )


@pytest.mark.parametrize("h", [[0, 1], [1, 1]], ids=["negative", "isotropic"])
def test_validate_rejects_nonpositive_reference_class(h):
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, h)
    report = model.validate()
    assert any("q(h, h) > 0" in v for v in report.violations)


def test_validate_rejects_negative_pairing_with_h():
    model = cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, [2, 1])
    # q(h, E) = -1 < 0
    report = model.validate()
    assert any("pairs negatively with h" in v for v in report.violations)


def test_validate_rejects_negative_pairwise_primes():
    model = cone_model(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [("a", [0, 1, 0]), ("b", [0, 1, 1])],
        [1, 0, 0],
    )
    # q(a, b) = -1 < 0
    report = model.validate()
    assert any("must pair nonnegatively" in v for v in report.violations)


@pytest.mark.parametrize(
    "primes, h, m, finding",
    [
        ({"E": [0, 1, 0]}, [1, 0], 1, "prime 'E' has length 3"),
        ({"E": [0, 1]}, [1, 0, 0], 1, "reference class has length 3"),
        ([("E", [0, 1]), ("E", [0, 1])], [1, 0], 1, "duplicate prime name 'E'"),
        ({}, [1, 0], 0, "m must be a positive integer"),
        ({}, [1, 0], 2.5, "m must be a positive integer"),
        ({}, [1, 0], True, "m must be a positive integer"),
    ],
    ids=["prime-length", "h-length", "duplicate-name", "m-zero", "m-fractional",
         "m-boolean"],
)
def test_construction_rejects_bad_shape(primes, h, m, finding):
    with pytest.raises(InvalidModelError) as err:
        cone_model([[1, 0], [0, -1]], primes, h, m)
    assert any(finding in v for v in err.value.violations)


def test_violation_prints_its_exact_rational_value():
    model = cone_model(
        [[1, 0, 0], [0, Q(-1, 2), 0], [0, 0, -1]],
        [("a", [0, 1, 0]), ("b", [0, Q(1, 3), 1]), ("c", [Q(-1, 5), 0, 0])],
        [1, 0, 0],
    )
    assert model.validate().violations == (
        "prime 'c' pairs negatively with h: q = -1/5",
        "distinct primes 'a', 'b' must pair nonnegatively: q = -1/6",
    )


# n/d with d <= 12 and |n| <= 6d: the support of st.fractions(-6, 6,
# max_denominator=12), drawn without its flatmap; k*d // 12 takes every
# value in [-6d, 6d] as k runs over [-72, 72]
rationals = st.builds(
    lambda d, k: Q(k * d // 12, d), st.integers(1, 12), st.integers(-72, 72)
)


@st.composite
def rational_models(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    vector = st.lists(rationals, min_size=r, max_size=r)
    lower = draw(st.lists(vector, min_size=r, max_size=r))
    form = [[lower[max(i, j)][min(i, j)] for j in range(r)] for i in range(r)]
    primes = draw(st.lists(vector, max_size=5))
    return cone_model(form, [(f"p{k}", v) for k, v in enumerate(primes)], draw(vector))


@given(rational_models())
@settings(max_examples=200, deadline=None)
def test_compiled_view_matches_exact_pairings(model):
    c = model.compiled
    s, e = c.scale, c.h_den
    assert c.form == tuple(tuple(s * x for x in row) for row in model.form.entries)
    assert c.h == tuple(e * x for x in model.h)
    qh = tuple(sum(x * y for x, y in zip(row, model.h)) for row in model.form.entries)
    assert tuple(Q(x, s * e) for x in c.qh) == qh
    assert Q(dot(c.qh, c.h), s * e * e) == inner(model.form, model.h, model.h)
    for p, vec, den in zip(model.primes, c.primes, c.dens):
        assert vec == tuple(den * x for x in p.vec)
        assert Q(dot(c.qh, vec), s * e * den) == inner(model.form, model.h, p.vec)
    for i, p in enumerate(model.primes):
        for j, p2 in enumerate(model.primes):
            assert (Q(c.gram[i][j], s * c.dens[i] * c.dens[j])
                    == inner(model.form, p.vec, p2.vec))


def _cleared(vec) -> tuple[tuple[int, ...], int]:
    den = math.lcm(*(Q(x).denominator for x in vec))
    return tuple(int(x * den) for x in vec), den


def _pack_by_field(images, rank):
    """The pack by its definition: image ``i`` in the 64-bit field ``i`` of each column,
    counted from the end that ``to_bytes`` writes first in native byte order."""
    norm = max((sum(map(abs, image)) for image in images), default=0)
    if len(images) <= rank or rank == 0 or norm >= 2**63:
        return None
    field = range(len(images)) if sys.byteorder == "little" else range(len(images))[::-1]
    columns = tuple(sum(image[k] * 2**(64 * i) for i, image in zip(field, images))
                    for k in range(rank))
    return columns, sum(2**63 * 2**(64 * i) for i in field), (2**63 - 1) // max(norm, 1)


def _compiled_by_entry(model) -> CompiledModel:
    """The integer view with one ``dot`` per image entry and per Gram entry."""
    r = model.rank
    flat, scale = _cleared([x for row in model.form.entries for x in row])
    form = tuple(flat[i * r:(i + 1) * r] for i in range(r))
    h, h_den = _cleared(model.h)
    cleared = [_cleared(p.vec) for p in model.primes]
    primes = tuple(vec for vec, _ in cleared)
    images = tuple(tuple(dot(row, vec) for row in form) for vec in primes)
    return CompiledModel(
        scale=scale, form=form, h=h, h_den=h_den, primes=primes,
        dens=tuple(den for _, den in cleared), qh=tuple(dot(row, h) for row in form),
        images=images, gram=tuple(tuple(dot(u, image) for image in images) for u in primes),
        pack=_pack_by_field(images, r),
    )


@pytest.mark.parametrize("r", range(1, 9))
def test_compiled_view_matches_one_dot_per_entry_on_del_pezzo(r):
    model = del_pezzo(r)
    assert model.compiled == _compiled_by_entry(model)


def test_compiled_view_matches_one_dot_per_entry_on_the_grid(pool):
    for spec, model, _ in pool:
        assert model.compiled == _compiled_by_entry(model), spec


class _Counted(tuple):
    """A tuple of images that records each pass over it: the packed scan reads only
    its length, and the ``dot`` fallback iterates it."""

    passes: list

    def __iter__(self):
        self.passes.append(1)
        return super().__iter__()


@st.composite
def crowded_models(draw):
    """Integer models with more primes than coordinates, checked by no axiom; a wide
    form entry may take an image's norm past ``2**63``, so that the model does not pack."""
    r = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(-3, 3) | st.integers(-2**63, 2**63)
    lower = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    form = [[lower[max(i, j)][min(i, j)] for j in range(r)] for i in range(r)]
    coordinate = st.integers(-3, 3) | st.integers(-2**40, 2**40)
    primes = draw(st.lists(st.lists(coordinate, min_size=r, max_size=r),
                           min_size=r + 1, max_size=r + 6))
    return cone_model(form, [(f"p{k}", v) for k, v in enumerate(primes)], [1] + [0] * (r - 1))


@given(crowded_models(), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_pairings_equal_one_dot_per_prime(model, data):
    """``_pairings`` is the ``dot`` list: packed for a class within the limit on a
    model whose images stay below ``2**63`` in norm, by the fallback otherwise,
    including the classes one past the limit and the class that reaches it."""
    c = model.compiled
    norm, widest = max((sum(map(abs, image)), image) for image in c.images)
    limit = (2**63 - 1) // max(norm, 1)
    assert c.pack == _pack_by_field(c.images, model.rank)
    assert (c.pack is None) == (norm >= 2**63)
    reach = [limit if x > 0 else -limit for x in widest]  # pairs to limit * norm
    classes = [reach, [-x for x in reach], [limit + 1] + reach[1:], reach[:-1] + [-limit - 1]]
    bound = st.integers(-limit - 1, limit + 1)
    classes += data.draw(st.lists(st.lists(bound, min_size=model.rank, max_size=model.rank),
                                  max_size=4))
    images = _Counted(c.images)
    vars(model)["compiled"] = replace(c, images=images)
    for a in classes:
        images.passes = []
        assert model._pairings(a) == [dot(a, image) for image in c.images]
        assert (not images.passes) == (c.pack is not None and max(map(abs, a)) <= limit)


@given(crowded_models())
@settings(max_examples=200, deadline=None)
@example(cone_model([[1, 0], [0, 2**62]], {"a": [2, 0], "b": [0, 1], "c": [1, 0]}, [1, 0]))
@example(cone_model([[2**62]], {"a": [2], "b": [-1]}, [1]))
@example(cone_model([[0]], {"a": [2**63], "b": [1]}, [1]))
@example(cone_model([[1]], {"a": [3037000500], "b": [-1]}, [1]))
def test_compiled_view_matches_one_dot_per_entry_on_crowded_models(model):
    """Both routes to the images: a model whose largest prime entry, or that entry
    times its widest form row, reaches ``2**63`` takes one ``dot`` an image entry, and
    still packs when every image's norm stays below ``2**63`` (the first example);
    any other model reads its images off the packed prime columns.  In the last
    example the largest prime entry is one past the limit, so its Gram row is no
    packed product: that entry squared passes ``2**63``."""
    assert model.compiled == _compiled_by_entry(model)


def test_a_pack_needs_a_coordinate_and_every_image_norm_below_2_63():
    inside = cone_model([[2**63 - 1]], {"a": [1], "b": [-1]}, [1])
    assert inside.compiled.pack[2] == 1
    assert inside._pairings((-1,)) == [1 - 2**63, 2**63 - 1]
    assert cone_model([[2**63]], {"a": [1], "b": [-1]}, [1]).compiled.pack is None
    empty = cone_model([], {"a": [], "b": []}, []).compiled  # rank 0: no class to bound
    assert (empty.pack, empty.gram) == (None, ((0, 0), (0, 0)))


def test_del_pezzo_models_pack_and_grid_models_do_not(pool, monkeypatch):
    """A model packs when it has more primes than coordinates: del Pezzo from r = 3,
    whose Gram rows are then each one product, with no ``dot`` and no per-row bound
    check in ``_scan``, and none of the grid models."""
    models = [del_pezzo(r) for r in range(1, 9)]
    assert [m.compiled.pack for m in models[:2]] == [None, None]
    monkeypatch.setattr(cone, "dot", None)
    monkeypatch.setattr(cone, "_scan", None)
    assert all(m.compiled.pack for m in models[2:])
    monkeypatch.undo()
    assert [spec for spec, model, _ in pool if model.compiled.pack] == []
    assert all(len(model.primes) <= model.rank for _, model, _ in pool)


def test_violations_come_in_prime_order_then_gram_row_order():
    """The full report of a model that packs, with a rational prime, a zero class, a
    prime negative on h, and negative pairs in the first, a middle and the last Gram
    row (the last prime's pairs are read in the earlier rows)."""
    model = cone_model(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        [("a", [1, 1, 0, 0]), ("b", [0, Q(1, 2), 0, 1]), ("c", [1, 0, 1, 0]),
         ("z", [0, 0, 0, 0]), ("d", [0, 0, 0, -1]), ("n", [Q(-1, 3), 0, 0, 0]),
         ("e", [1, 0, 0, 1]), ("f", [0, 0, 1, 1])],
        [2, 0, 0, 0],
    )
    assert model.compiled.pack is not None
    assert min(model.compiled.gram[-1][:-1]) < 0
    report = model.validate()
    assert report.violations == (
        "prime 'z' is the zero class",
        "prime 'n' pairs negatively with h: q = -2/3",
        "distinct primes 'a', 'b' must pair nonnegatively: q = -1/2",
        "distinct primes 'a', 'n' must pair nonnegatively: q = -1/3",
        "distinct primes 'b', 'e' must pair nonnegatively: q = -1",
        "distinct primes 'b', 'f' must pair nonnegatively: q = -1",
        "distinct primes 'c', 'n' must pair nonnegatively: q = -1/3",
        "distinct primes 'c', 'f' must pair nonnegatively: q = -1",
        "distinct primes 'n', 'e' must pair nonnegatively: q = -1/3",
        "distinct primes 'e', 'f' must pair nonnegatively: q = -1",
    )
    assert report.warnings == (
        "prime 'b' is orthogonal to h (boundary contact)",
        "prime 'd' is orthogonal to h (boundary contact)",
        "prime 'f' is orthogonal to h (boundary contact)",
    )


def test_duplicate_names_are_each_reported_once_in_sorted_order():
    primes = list(del_pezzo(8).primes)
    assert len(primes) == 240
    primes[239] = PrimeClass("e2", primes[239].vec)  # e2 twice
    primes[100] = PrimeClass("e1", primes[100].vec)  # e1 three times
    primes[150] = PrimeClass("e1", primes[150].vec)
    with pytest.raises(InvalidModelError) as err:
        cone_model(del_pezzo(8).form, [(p.name, p.vec) for p in primes], [3] + [-1] * 8)
    assert err.value.violations == (
        "duplicate prime name 'e1'",
        "duplicate prime name 'e2'",
    )


# sha256 of the reports and family lists below, frozen when both were
# computed with Fraction pairings
RESCALED_DIGEST = "3e881509c7c57c2acb417089d1478353a98525601251fb2d522f32c3db6195cd"


def rescaled_grid_models(pool):
    """The grid models with the form, h and each prime scaled by random
    nonzero rationals, drawn from one seeded stream."""
    rng = random.Random(2024)

    def draw():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))

    for _, model, _ in pool:
        t = draw()
        form = [[t * x for x in row] for row in model.form.entries]
        primes = [(p.name, vec_scale(draw(), p.vec)) for p in model.primes]
        yield cone_model(form, primes, vec_scale(draw(), model.h))


def test_reports_and_families_on_rescaled_grid_models_are_frozen(pool):
    """On the rescaled grid models 162 of the 200 break an axiom, with exact
    values."""
    lines, failing = [], 0
    for scaled in rescaled_grid_models(pool):
        report = scaled.validate()
        failing += not report.ok
        lines.append(repr((report.violations, report.warnings,
                           enumerate_exceptional_families(scaled))))
    assert failing == 162
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RESCALED_DIGEST


def test_validate_rejects_zero_prime():
    model = cone_model([[1, 0], [0, -1]], {"Z": [0, 0]}, [1, 0])
    assert any("zero class" in v for v in model.validate().violations)


def test_require_valid_raises_with_all_violations():
    model = cone_model([[1, 0], [0, 1]], {}, [0, 1])
    with pytest.raises(InvalidModelError) as err:
        model.require_valid()
    assert err.value.violations


def test_positive_cone_closure_examples(s1):
    assert s1.in_positive_cone_closure([1, 0])
    assert s1.in_positive_cone_closure([2, 1])
    assert s1.in_positive_cone_closure([1, 1])  # isotropic boundary
    assert s1.in_positive_cone_closure([0, 0])
    assert not s1.in_positive_cone_closure([1, 2])  # negative square
    assert not s1.in_positive_cone_closure([-1, 0])  # wrong half-cone


def test_dual_nef_examples(s1):
    assert not s1.is_dual_nef([1, 2])  # pairs negatively with E
    assert s1.is_dual_nef([1, -1])
    assert s1.is_dual_nef([1, 0])
    assert not s1.is_dual_nef([-1, 0])


def test_prime_with_negative_square_is_not_dual_nef(s1, s2):
    assert not s1.is_dual_nef(s1.primes[0].vec)
    for p in s2.primes:
        assert not s2.is_dual_nef(p.vec)


def test_dual_nef_cone_closed_under_addition_and_scaling(pool):
    """Positive parts from random decompositions generate dual-nef classes."""
    checked = 0
    for _, model, classes in pool[:60]:
        zs = [decompose(model, alpha).positive_part for alpha in classes[:2]]
        for z in zs:
            assert model.is_dual_nef(z)
            assert model.is_dual_nef(vec_scale(Q(7, 3), z))
        assert model.is_dual_nef(vec_add(zs[0], zs[1]))
        checked += 1
    assert checked == 60


def _fraction_image(model, vec):
    """``Q · vec`` in Fraction arithmetic, apart from the integer view."""
    return [sum((x * Q(b) for x, b in zip(row, vec)), Q(0)) for row in model.form.entries]


def _sign(x):
    return (x > 0) - (x < 0)


def _assert_integer_signs_match(model, classes):
    images = [_fraction_image(model, v) for v in (model.h, *(p.vec for p in model.primes))]
    for alpha in classes:
        q_h, *q_primes = (sum((Q(a) * y for a, y in zip(alpha, image)), Q(0))
                          for image in images)
        signs = tuple(_sign(q) for q in q_primes)
        q_self = sum((Q(a) * y for a, y in zip(alpha, _fraction_image(model, alpha))), Q(0))
        in_cone = q_self >= 0 and q_h >= 0
        assert tuple(map(_sign, model._pairings(model._cleared(alpha)[0]))) == signs
        assert model.in_positive_cone_closure(alpha) == in_cone
        assert model.is_dual_nef(alpha) == (in_cone and min(signs, default=0) >= 0)


def _probe_classes(model, rng, count=6):
    """0, h, the primes, their negatives, and random integer and rational classes."""
    classes = [(Q(0),) * model.rank, model.h, *(p.vec for p in model.primes)]
    classes += [vec_scale(-1, c) for c in classes]
    for _ in range(count):
        classes.append(tuple(Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                             for _ in range(model.rank)))
    return classes


def test_integer_signs_match_fraction_pairings_on_grid_models(pool, pool_decompositions):
    rng = random.Random(7)
    for _, model, classes in pool:
        _assert_integer_signs_match(model, [*classes, *_probe_classes(model, rng)])
    for model, _, dec in pool_decompositions:
        _assert_integer_signs_match(model, [dec.positive_part])


@pytest.mark.parametrize("r", range(1, 9))
def test_integer_signs_match_fraction_pairings_on_del_pezzo(r):
    model = del_pezzo(r)
    rng = random.Random(r)
    classes = [(Q(0),) * (r + 1), model.h, *(p.vec for p in model.primes[:12])]
    classes += [tuple(Q(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(r + 1))
                for _ in range(4)]
    _assert_integer_signs_match(model, classes)


def test_integer_signs_match_fraction_pairings_on_rescaled_grid_models(pool):
    rng = random.Random(11)
    for model in rescaled_grid_models(pool):
        _assert_integer_signs_match(model, _probe_classes(model, rng, count=3))
