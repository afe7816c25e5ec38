"""Differential tests: the integer simplex against the Fraction oracle.

The two kernels run the same LP with the same Bland pivots, so they must
agree exactly: ``None`` for both, or the same tuple of Fractions. Region
enumeration built on either must therefore give identical sign vectors and
witnesses.
"""

import random
from fractions import Fraction

import pytest

from conftest import CATALOG
from lp_oracle import feasible_point as oracle_point
from sqlinear import arrangement, catalog, ratlin
from sqlinear.errors import ValidationError
from sqlinear.simplex import feasible_point


def random_entry(rng, integral):
    if integral:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def random_system(rng, d, m, integral):
    """m rows in d unknowns; half are oriented to contain a hidden point, and
    some are repeats, negations or combinations of earlier rows."""
    hidden = [random_entry(rng, integral) for _ in range(d)]
    oriented = rng.random() < 0.5
    rows = []
    while len(rows) < m:
        roll = rng.random()
        if rows and roll < 0.15:
            row = rng.choice(rows)
        elif rows and roll < 0.25:
            row = tuple(-v for v in rng.choice(rows))
        elif len(rows) >= 2 and roll < 0.4:
            a, b = rng.sample(rows, 2)
            ca, cb = random_entry(rng, integral), random_entry(rng, integral)
            row = tuple(ca * x + cb * y for x, y in zip(a, b))
        else:
            row = tuple(random_entry(rng, integral) for _ in range(d))
        if oriented:
            value = ratlin.dot(row, hidden)
            if value == 0:
                continue
            if value < 0:
                row = tuple(-v for v in row)
        rows.append(row)
    return rows


def test_empty_system():
    assert feasible_point([]) == oracle_point([]) == ()


def test_matches_oracle_on_random_systems():
    rng = random.Random(20251017)
    feasible = infeasible = 0
    for trial in range(300):
        d = rng.randint(2, 5)
        m = rng.randint(1, 14)
        rows = random_system(rng, d, m, integral=trial % 2 == 0)
        if trial % 4 == 0:
            rows = [tuple(int(v) for v in row) for row in rows]  # plain Python ints
        got = feasible_point(rows)
        assert got == oracle_point(rows), rows
        if got is None:
            infeasible += 1
        else:
            feasible += 1
            assert all(isinstance(v, Fraction) for v in got)
            assert all(ratlin.dot(row, got) >= 1 for row in rows)
    assert feasible > 60 and infeasible > 60


@pytest.mark.parametrize(
    "rows, feasible",
    [
        ([(1, 0), (1, 0), (0, 1)], True),  # repeated row
        ([(1, 2), (-1, -2)], False),  # negated row
        ([(1, 1), (1, -1), (2, 0)], True),  # dependent row, degenerate vertex
        ([(0, 0)], False),  # zero row: 0 >= 1
        ([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), Fraction(1, 9))], True),
    ],
)
def test_degenerate_systems(rows, feasible):
    got = feasible_point(rows)
    assert got == oracle_point(rows)
    assert (got is not None) == feasible


def regions_with(lp, arr, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(arrangement, "feasible_point", lp)
        return [(r.sign, r.witness) for r in arrangement.enumerate_regions(arr)]


def assert_same_regions(arr, monkeypatch):
    expected = regions_with(oracle_point, arr, monkeypatch)
    assert regions_with(feasible_point, arr, monkeypatch) == expected
    assert len(expected) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 7), (3, 9), (4, 8), (5, 8)])
def test_enumeration_matches_oracle_on_generic_arrangements(d, n, monkeypatch):
    rng = random.Random(f"generic/{d}/{n}")
    assert_same_regions(catalog.random_arrangement(d, n, rng), monkeypatch)


def test_enumeration_matches_oracle_on_rational_degenerate_arrangements(monkeypatch):
    """Small entries make many triple points; random positive rational scales
    make the rows non-integral without changing the arrangement."""
    rng = random.Random(7)
    done = 0
    while done < 8:
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, d + 4)
        rows = []
        for _ in range(n):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rows.append(tuple(scale * rng.randint(-2, 2) for _ in range(d)))
        try:
            arr = arrangement.Arrangement(A=tuple(rows))
            assert_same_regions(arr, monkeypatch)
        except ValidationError:
            continue  # zero, parallel or rank-deficient rows
        done += 1


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_enumeration_matches_oracle_on_catalog(name, monkeypatch):
    assert_same_regions(CATALOG[name](), monkeypatch)
