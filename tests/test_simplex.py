"""Checks of the exact Fraction simplex of tests/lp_oracle.py on its own.

That phase-1 simplex is the reference LP of the tests and the kernel of the
LP region enumeration that tests/test_regions_oracle.py holds the library
against, so it is checked here by means that share no code with it: a
returned point must satisfy every row, an infeasible answer must come with
a Farkas certificate found by brute force, and an LP enumeration must give
distinct regions, each with an interior ray, as many as |chi(-1)| / 2.
"""

import itertools
import random
from fractions import Fraction

import pytest

import lp_oracle
from conftest import CATALOG
from lp_oracle import feasible_point as oracle_point
from sqlinear import arrangement, catalog, ratlin
from sqlinear.errors import ValidationError


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


def farkas_certificate(rows):
    """Rows S and weights y > 0 with sum_S y_i row_i = 0, or None.

    Such weights exist exactly when row . x >= 1 has no solution. A
    certificate of least support has at most d + 1 rows and spans the whole
    left null space of its rows, so trying every subset up to that size, in
    order of size, finds one if any exists.
    """
    d = len(rows[0])
    for size in range(1, min(len(rows), d + 1) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            columns = ratlin.transpose([rows[i] for i in subset])
            basis = ratlin.nullspace(columns, size)
            if len(basis) != 1:
                continue
            (y,) = basis
            if all(v > 0 for v in y) or all(v < 0 for v in y):
                return subset, tuple(abs(v) for v in y)
    return None


def test_matches_oracle_on_random_systems():
    """A point exactly when no Farkas certificate exists."""
    rng = random.Random(20251017)
    feasible = infeasible = 0
    for trial in range(300):
        d = rng.randint(2, 5)
        m = rng.randint(1, 14)
        rows = random_system(rng, d, m, integral=trial % 2 == 0)
        if trial % 4 == 0:
            rows = [tuple(int(v) for v in row) for row in rows]  # plain Python ints
        got = oracle_point(rows)
        if got is None:
            infeasible += 1
            found = farkas_certificate(rows)
            assert found is not None, rows
            subset, y = found
            total = [sum(w * rows[i][j] for w, i in zip(y, subset)) for j in range(d)]
            assert all(v == 0 for v in total)
        else:
            feasible += 1
            assert len(got) == d
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
    got = oracle_point(rows)
    assert (got is not None) == feasible
    if feasible:
        assert all(ratlin.dot(row, got) >= 1 for row in rows)
    else:
        assert farkas_certificate(rows) is not None


def assert_lp_regions_complete(arr):
    """Distinct projective sign vectors, each with an exactly interior ray,
    as many as the characteristic polynomial counts."""
    regions = lp_oracle.enumerate_regions(arr)
    signs = [r.sign.signs for r in regions]
    assert len(set(signs)) == len(signs)
    for region in regions:
        assert region.sign.signs[0] == 1
        values = arr.form_values(region.ray)
        assert all(s * v > 0 for s, v in zip(region.sign.signs, values))
    assert len(regions) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 7), (3, 9), (4, 8), (5, 8)])
def test_enumeration_matches_oracle_on_generic_arrangements(d, n):
    rng = random.Random(f"generic/{d}/{n}")
    assert_lp_regions_complete(catalog.random_arrangement(d, n, rng))


def test_enumeration_matches_oracle_on_rational_degenerate_arrangements():
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
            assert_lp_regions_complete(arr)
        except ValidationError:
            continue  # zero, parallel or rank-deficient rows
        done += 1


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_enumeration_matches_oracle_on_catalog(name):
    assert_lp_regions_complete(CATALOG[name]())
