"""Deterministic model generation: reproducibility, validity, exhaustion."""
from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from zariski import (
    FixtureSpec,
    GenerationExhaustedError,
    FormatError,
    InvalidModelError,
    cone_model,
    decompose,
    del_pezzo,
    enumerate_exceptional_families,
    gen_model,
    gen_pseudoeffective_class,
)
from zariski import fixtures
from zariski.exact import inner
from zariski.fixtures import _below, _random_unimodular, parse_spec_literal, spec_grid

from conftest import orthogonal_sets


def test_generation_is_deterministic():
    spec = FixtureSpec(rank=4, prime_count=3, seed=42)
    a, b = gen_model(spec), gen_model(spec)
    assert a == b
    assert gen_pseudoeffective_class(a, 7) == gen_pseudoeffective_class(b, 7)


def test_different_seeds_differ():
    a = gen_model(FixtureSpec(rank=4, prime_count=3, seed=1))
    b = gen_model(FixtureSpec(rank=4, prime_count=3, seed=2))
    assert a != b


def test_generated_models_are_valid_across_specs():
    for rank in range(2, 7):
        cap = 2 if rank == 2 else min(rank, 6)
        for prime_count in range(cap + 1):
            model = gen_model(FixtureSpec(rank=rank, prime_count=prime_count, seed=55))
            assert model.rank == rank
            assert len(model.primes) == prime_count
            assert model.validate().ok
            assert inner(model.form, model.h, model.h) == 1
            assert model.prime_names() == tuple(
                f"p{k + 1}" for k in range(prime_count)
            )


@pytest.mark.parametrize("seed", [0, 1, 42, 2024, 10**9 + 7])
def test_below_draws_as_randrange(seed):
    """One stream of interleaved sizes: _below consumes exactly the draws
    randrange does, so switching between them keeps every later draw."""
    sizes = [1 + (k * 7) % 16 for k in range(400)]
    ours, ref = random.Random(seed), random.Random(seed)
    assert [_below(ours, n) for n in sizes] == [ref.randrange(n) for n in sizes]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_below_two_draws_as_choice(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    assert ([(1, -1)[_below(ours, 2)] for _ in range(200)]
            == [ref.choice((1, -1)) for _ in range(200)])
    assert ours.getstate() == ref.getstate()


def test_random_unimodular_returns_its_inverse():
    for spec in spec_grid(200):
        n = spec.rank
        u, inv = _random_unimodular(random.Random(spec.seed), n, spec.coefficient_bound)
        product = [[sum(u[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)], spec


DEL_PEZZO_PRIMES = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
# Zariski chamber counts (Bauer-Funke-Neumann, J. Algebra 2010)
DEL_PEZZO_FAMILIES = {1: 2, 2: 5, 3: 18, 4: 76, 5: 393, 6: 2764, 7: 33645}


@pytest.mark.parametrize("r", sorted(DEL_PEZZO_PRIMES))
def test_del_pezzo_primes_are_the_minus_one_classes(r):
    model = del_pezzo(r)
    assert model.rank == r + 1
    assert len(model.primes) == DEL_PEZZO_PRIMES[r]
    for p in model.primes:
        assert inner(model.form, p.vec, p.vec) == -1
        assert inner(model.form, model.h, p.vec) == 1  # h = -K
    assert model.validate().ok


@pytest.mark.parametrize("r", sorted(DEL_PEZZO_FAMILIES))
def test_del_pezzo_family_counts(r):
    model = del_pezzo(r)
    families = enumerate_exceptional_families(model)
    assert len(families) == DEL_PEZZO_FAMILIES[r]
    assert families == orthogonal_sets(model)


# |W(E_r)| / r!: the ways to blow the surface down to P^2 along r disjoint
# (-1)-curves (Manin, Cubic Forms), that is, the exceptional families of size r
DEL_PEZZO_BLOW_DOWNS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 72, 7: 576}


@pytest.mark.parametrize("r", sorted(DEL_PEZZO_BLOW_DOWNS))
def test_del_pezzo_census_size_anchors(r):
    """Size 1 counts the (-1)-curves and size r the blow-downs, under every
    cap, so the walk's last level before the cap is checked at every depth."""
    model = del_pezzo(r)
    for cap in range(1, model.rank + 1):
        sizes = Counter(map(len, enumerate_exceptional_families(model, max_size=cap)))
        assert sizes[1] == DEL_PEZZO_PRIMES[r]
        assert sizes[r] == (DEL_PEZZO_BLOW_DOWNS[r] if r <= cap else 0)
        assert sizes[r + 1] == 0


def test_del_pezzo_rejects_out_of_range():
    for r in (0, 9):
        with pytest.raises(ValueError, match="1 <= r <= 8"):
            del_pezzo(r)


def test_rank2_cannot_host_many_primes():
    """At rank 2 at most two primes can pair nonnegatively; six must exhaust."""
    with pytest.raises(GenerationExhaustedError, match="spec too tight"):
        gen_model(FixtureSpec(rank=2, prime_count=6, seed=3))


def test_gen_model_ends_in_the_models_own_gate(monkeypatch):
    """A generated model that fails validation raises `InvalidModelError`, a
    check that `python -O` keeps."""
    definite = cone_model([[1, 0], [0, 1]], {}, [1, 0])
    assert not definite.report.ok
    monkeypatch.setattr(fixtures, "cone_model", lambda *args, **kwargs: definite)
    with pytest.raises(InvalidModelError, match="expected Lorentzian"):
        gen_model(FixtureSpec(rank=2, prime_count=0, seed=3))


def test_spec_validation():
    with pytest.raises(ValueError, match="rank"):
        FixtureSpec(rank=1, prime_count=0, seed=0)
    with pytest.raises(ValueError, match="rank"):
        FixtureSpec(rank=7, prime_count=0, seed=0)
    with pytest.raises(ValueError, match="prime_count"):
        FixtureSpec(rank=3, prime_count=7, seed=0)
    with pytest.raises(ValueError, match="coefficient_bound"):
        FixtureSpec(rank=3, prime_count=1, seed=0, coefficient_bound=0)


def test_parse_spec_literal():
    assert parse_spec_literal("3,2,42") == FixtureSpec(rank=3, prime_count=2, seed=42)
    assert parse_spec_literal("4, 1, 9, 6") == FixtureSpec(
        rank=4, prime_count=1, seed=9, coefficient_bound=6
    )
    with pytest.raises(FormatError):
        parse_spec_literal("3,2")
    with pytest.raises(FormatError):
        parse_spec_literal("a,b,c")
    with pytest.raises(FormatError, match="rank"):
        parse_spec_literal("9,2,42")


# sha256 of the 1000 pool classes, frozen when generation paired with Fractions
POOL_CLASS_DIGEST = "129e931aaa0d8df5b911bc6bf71f96a01da4b2d754640307f2d2255e3ea6f523"


def test_generated_classes_are_pinned(pool):
    """gen_pseudoeffective_class over spec_grid(200), seeds spec.seed*10 + k."""
    text = "\n".join(",".join(str(x) for x in alpha)
                     for _, _, classes in pool for alpha in classes)
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_CLASS_DIGEST


# sha256 of form, h and primes of the spec_grid(400) models, frozen when
# generation drew through randint, randrange and choice
POOL_MODEL_DIGEST = "7e9779474e5d84931ba95741d4182b0c4661378d0522b8a50a0bdc92fc6136d1"


def test_generated_models_are_pinned():
    def line(model):
        form = ";".join(",".join(map(str, row)) for row in model.form.entries)
        primes = ";".join(",".join(map(str, p.vec)) for p in model.primes)
        return f"{form}|{','.join(map(str, model.h))}|{primes}"

    text = "\n".join(line(gen_model(spec)) for spec in spec_grid(400))
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_MODEL_DIGEST


def test_generated_classes_decompose(pool):
    """Every generated class is accepted by the engine (pool is precomputed)."""
    zero_seen = False
    for _, model, classes in pool[:40]:
        for alpha in classes:
            d = decompose(model, alpha)
            assert d.certificate.all_passed
            if all(x == 0 for x in alpha):
                zero_seen = True
    assert zero_seen, "coefficient sampling should occasionally produce zero"
