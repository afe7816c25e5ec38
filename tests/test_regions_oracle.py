"""Screened region enumeration against the unscreened oracle.

sqlinear.arrangement decides most splits from each region's extreme rays and
runs an LP only for a new region's witness; tests/lp_oracle.py runs one LP
per (region, inserted hyperplane). Both must return equal ``Region`` lists:
the same sign vectors and the same exact witnesses, in the same order.
"""

import itertools
import random
from fractions import Fraction

import pytest

import lp_oracle as oracle
from conftest import CATALOG
from sqlinear import arrangement, catalog, ratlin, simplex
from sqlinear.errors import ValidationError


def orthogonal_part(u, v):
    """A positive multiple of u minus its projection on v, so it vanishes at v."""
    return ratlin.sub(ratlin.scale(u, ratlin.dot(v, v)), ratlin.scale(v, ratlin.dot(v, u)))


def late_start_arrangements(seed, count):
    """Degenerate rational arrangements whose first d+1 or more rows have rank < d.

    The leading rows lie in one hyperplane through the origin (e.g. three
    coplanar rows first in d = 3); the rest have small entries, so triple
    points and rows vanishing on extreme rays are common.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(3, 4)
        normal = [rng.randint(-2, 2) for _ in range(d)]
        if not any(normal):
            continue
        rows = []
        while len(rows) < d:
            u = [rng.randint(-3, 3) for _ in range(d)]
            row = orthogonal_part(u, normal)
            if not ratlin.is_zero(row):
                rows.append(row)
        for _ in range(rng.randint(2, 4)):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rows.append(tuple(scale * rng.randint(-2, 2) for _ in range(d)))
        try:
            arr = arrangement.Arrangement(A=tuple(rows))
            arrangement._require_essential(arr)
        except ValidationError:
            continue  # a zero row, or rank < d
        if arrangement._parallel_pairs(arr):
            continue
        # Screening starts after the shortest prefix of rank d: row d or later.
        assert ratlin.IntEchelon.independent_rows(arr.A, d)[-1] >= d
        out.append(arr)
    return out


def on_witness_arrangements(seed, count):
    """Generic prefixes followed by a row through one of their region witnesses.

    Insertion keeps each region's witness until the region splits, and the
    final witness is that point rescaled, so the extra row meets the witness
    exactly when it is inserted.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        prefix = catalog.random_arrangement(d, rng.randint(d + 1, d + 3), rng)
        witness = rng.choice(oracle.enumerate_regions(prefix)).witness
        u = [rng.randint(-5, 5) for _ in range(d)]
        row = orthogonal_part(u, witness)
        if ratlin.is_zero(row):
            continue
        arr = arrangement.Arrangement(A=prefix.A + (row,))
        if arrangement._parallel_pairs(arr):
            continue
        out.append(arr)
    return out


def assert_same_regions(arr):
    regions = arrangement.enumerate_regions(arr)
    assert regions == oracle.enumerate_regions(arr)
    return regions


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_generic_arrangements(d):
    rng = random.Random(f"screen/{d}")
    for _ in range(12 if d < 5 else 4):
        arr = catalog.random_arrangement(d, rng.randint(d + 1, d + (6 if d < 5 else 3)), rng)
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


def test_degenerate_arrangements_with_late_screening():
    for arr in late_start_arrangements(11, 30):
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


def test_witness_on_a_later_hyperplane():
    for arr in on_witness_arrangements(12, 20):
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog(name):
    assert_same_regions(CATALOG[name]())


def counted(lp, log):
    def wrapper(rows):
        point = lp(rows)
        log.append((rows, point))
        return point

    return wrapper


def test_lps_run_only_for_new_regions(monkeypatch):
    """Once the inserted rows reach rank d, every LP finds a new region, and
    the screened loop runs exactly the oracle's feasible LPs."""
    rng = random.Random(13)
    generic = [catalog.random_arrangement(d, d + 5, rng) for d in (2, 3, 4)]
    cases = [(arr, True) for arr in generic]
    cases += [(arr, False) for arr in late_start_arrangements(14, 6) + on_witness_arrangements(15, 6)]
    saved = 0
    for arr, is_generic in cases:
        screened, unscreened = [], []
        monkeypatch.setattr(arrangement, "feasible_point", counted(simplex.feasible_point, screened))
        monkeypatch.setattr(simplex, "feasible_point", counted(simplex.feasible_point, unscreened))
        arrangement.enumerate_regions(arr)
        oracle.enumerate_regions(arr)
        monkeypatch.undo()
        # The last row of each LP is the new hyperplane; the rest is the cone.
        assert all(ratlin.rank(rows[:-1]) < arr.d for rows, point in screened if point is None)
        found = [rows for rows, point in screened if point is not None]
        assert found == [rows for rows, point in unscreened if point is not None]
        if is_generic:
            assert len(screened) == len(found)
        saved += len(unscreened) - len(screened)
    assert saved > 0


def extreme_rays(arr, signs):
    """Extreme rays of {s_i A_i x >= 0} by brute force: the kernel of every
    rank d-1 set of rows, kept where it lies in the cone."""
    d = arr.d
    cone = [ratlin.scale(row, s) for row, s in zip(arr.A, signs)]
    found = set()
    for subset in itertools.combinations(range(arr.n), d - 1):
        kernel = ratlin.nullspace([arr.A[i] for i in subset], ncols=d)
        if len(kernel) != 1:
            continue
        for vec in (kernel[0], ratlin.scale(kernel[0], -1)):
            values = [ratlin.dot(row, vec) for row in cone]
            if all(v >= 0 for v in values):
                ray = arrangement._ray(ratlin.cleared(vec)[0])
                found.add((ray, sum(1 << i for i, v in enumerate(values) if v == 0)))
    return found


@pytest.mark.parametrize("kind", ["generic", "late_start"])
def test_carried_rays_are_the_extreme_rays(kind):
    """Cutting every row into the start cone, one double-description step at
    a time, leaves exactly the extreme rays with exactly their zero masks."""
    if kind == "generic":
        rng = random.Random(16)
        cases = [catalog.random_arrangement(d, d + 4, rng) for d in (2, 3, 4)]
    else:
        cases = late_start_arrangements(17, 5)
    for arr in cases:
        chosen = ratlin.IntEchelon.independent_rows(arr.A, arr.d)
        columns = ratlin.transpose(ratlin.inverse([arr.A[i] for i in chosen]))
        base = [arrangement._ray(ratlin.cleared(col)[0]) for col in columns]
        ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
        for region in arrangement.enumerate_regions(arr):
            rays = arrangement._cone_rays(region.sign.signs, chosen, base, ints, arr.d)
            assert len(rays) == len(set(rays))
            assert set(rays) == extreme_rays(arr, region.sign.signs)
