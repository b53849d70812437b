"""Shared fixtures: canonical small models, the deterministic random pool, the
reference vector sum and scaling the tests build classes with, the naive
exceptional-family filter, and the reference list of del Pezzo exceptional
families."""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from zariski import (
    ConeModel,
    FixtureSpec,
    cone_model,
    decompose,
    gen_model,
    gen_pseudoeffective_class,
    spec_grid,
)
from zariski.exact import inner

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def s1() -> ConeModel:
    """Rank 2, one prime of self-pairing -1."""
    return cone_model([[1, 0], [0, -1]], {"E": [0, 1]}, [1, 0])


@pytest.fixture(scope="session")
def s2() -> ConeModel:
    """Rank 3 with a chain of two primes meeting in one point."""
    return cone_model(
        [[2, 0, 0], [0, -2, 1], [0, 1, -2]],
        [("c1", [0, 1, 0]), ("c2", [0, 0, 1])],
        [1, 0, 0],
    )


@pytest.fixture(scope="session")
def ten_primes() -> ConeModel:
    """Rank 4 diagonal form with ten primes, six of them exceptional."""
    from zariski import load_model

    return load_model(DATA / "ten_primes.json")


@pytest.fixture(scope="session")
def affine_a2() -> ConeModel:
    """Rank 4 with a cyclic triple of primes whose Gram matrix is singular."""
    return cone_model(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]],
        [("c1", [0, 0, 1, 0]), ("c2", [0, 0, 0, 1]), ("c3", [1, 0, -1, -1])],
        [1, 1, 0, 0],
    )


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, u) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in u)


def _negative_definite(rows) -> bool:
    """Gaussian elimination without pivoting: all pivots negative (Sylvester).
    It divides with ``/``, so every entry must be a Fraction."""
    m = [list(row) for row in rows]
    for k, pivot_row in enumerate(m):
        if pivot_row[k] >= 0:
            return False
        for row in m[k + 1:]:
            f = row[k] / pivot_row[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot_row[k:])]
    return True


def is_exceptional_family(model: ConeModel, names) -> bool:
    """The naive filter the family walk is checked against: whether the
    named primes have a negative definite Gram matrix.  The Gram is built
    entry by entry in plain Fraction arithmetic from the form and reduced by
    `_negative_definite`, so it shares no kernel with the walk."""
    vecs = [model.prime_vec[n] for n in names]
    images = [[sum((x * y for x, y in zip(row, u) if y), Fraction(0))
               for row in model.form.entries] for u in vecs]
    return _negative_definite([[sum((x * y for x, y in zip(qu, v) if y), Fraction(0))
                                for v in vecs] for qu in images])


grid_specs = spec_grid  # the name perfbench/test_bench.py compares its own grid with


@pytest.fixture(scope="session")
def pool() -> list[tuple[FixtureSpec, ConeModel, list]]:
    """200 generated models, each with 5 deterministic pseudo-effective classes."""
    out = []
    for spec in spec_grid(200):
        model = gen_model(spec)
        classes = [
            gen_pseudoeffective_class(model, spec.seed * 10 + k) for k in range(5)
        ]
        out.append((spec, model, classes))
    return out


@pytest.fixture(scope="session")
def pool_decompositions(pool):
    """Every pool class decomposed once, shared across property tests."""
    return [
        (model, alpha, decompose(model, alpha))
        for _, model, classes in pool
        for alpha in classes
    ]


def orthogonal_sets(model) -> list[tuple[str, ...]]:
    """Sets of pairwise-orthogonal (-1)-classes, depth-first in prime order.

    Such a set has Gram matrix -I, and two (-1)-classes with E.F >= 1 have
    a 2x2 Gram that is not negative definite, so on a del Pezzo lattice
    these are exactly the exceptional families.
    """
    vecs = [p.vec for p in model.primes]
    names = model.prime_names()
    orthogonal = [[inner(model.form, u, v) == 0 for v in vecs] for u in vecs]
    out = [()]

    def extend(family, allowed):
        for k, j in enumerate(allowed):
            grown = family + (names[j],)
            out.append(grown)
            extend(grown, [i for i in allowed[k + 1:] if orthogonal[i][j]])

    extend((), list(range(len(vecs))))
    return out
