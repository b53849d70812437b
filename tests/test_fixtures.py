"""Deterministic model generation: reproducibility, validity, exhaustion."""
from __future__ import annotations

import random

import pytest

from zariski import (
    FixtureSpec,
    GenerationExhaustedError,
    FormatError,
    decompose,
    gen_model,
    gen_pseudoeffective_class,
)
from zariski.fixtures import _random_unimodular, parse_spec_literal, spec_grid


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
            assert model.q(model.h, model.h) == 1
            assert model.prime_names() == tuple(
                f"p{k + 1}" for k in range(prime_count)
            )


def test_random_unimodular_returns_its_inverse():
    for spec in spec_grid(200):
        n = spec.rank
        u, inv = _random_unimodular(random.Random(spec.seed), n, spec.coefficient_bound)
        product = [[sum(u[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)], spec


def test_rank2_cannot_host_many_primes():
    """At rank 2 at most two primes can pair nonnegatively; six must exhaust."""
    with pytest.raises(GenerationExhaustedError, match="spec too tight"):
        gen_model(FixtureSpec(rank=2, prime_count=6, seed=3))


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
