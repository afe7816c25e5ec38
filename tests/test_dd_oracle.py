"""The shared-line double description and the persistent chi walk against
the per-cone step and the truncating walk they replaced (tests/dd_oracle.py).

Over random arrangements with small entries (so triple points, rows through
extreme rays and dependent rows are common), the catalog and the shapes of
the exact-regions benchmark workload, both must return the same regions with
the same sign strings and the same Fraction witnesses, the same ordered
(ray, zero mask) lists for the regions' cones, and the same chi.
"""

import random

import pytest

import dd_oracle as oracle
from conftest import CATALOG
from sqlinear import arrangement, catalog, ratlin
from sqlinear.dpp import DPPModel, linear_projection_arrangement
from sqlinear.errors import ValidationError

# Cones checked per arrangement: every region's for arrangements up to this
# many regions, a seeded sample of this many for larger ones.
CONES_PER_ARRANGEMENT = 32


def small_entry_arrangements(seed):
    """Endless random draws: d = 2..5, n = d+1..d+7, entries -3..3, zero rows dropped."""
    rng = random.Random(seed)
    while True:
        d = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d + 1, d + 7))]
        rows = [row for row in rows if any(row)]
        if rows:
            yield arrangement.Arrangement(A=rows)


def enumerable(arr):
    """Essential and without parallel rows, as enumeration requires."""
    return arr.is_essential() and not oracle.parallel_pairs(arr)


def benchmark_shapes():
    """The first four pool members of each exact-regions shape, drawn as the
    workload draws them (a DPP's fixed rows are redrawn until its
    arrangement has no parallel rows)."""
    out = [
        catalog.random_arrangement(d, n, random.Random(f"exact-regions/{d}x{n}/{k}"))
        for d, n in ((3, 8), (4, 9), (5, 9), (3, 12))
        for k in range(4)
    ]
    for k in range(4):
        rng = random.Random(f"exact-regions/dpp5/{k}")
        while True:
            theta = tuple(tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(2))
            try:
                arr = linear_projection_arrangement(DPPModel(Theta_fixed=theta, k=3, n=5)).arrangement
            except ValidationError:
                continue
            if enumerable(arr):
                out.append(arr)
                break
    return out


def assert_same_enumeration(arr):
    regions = arrangement.enumerate_regions(arr)
    expected = oracle.enumerate_regions(arr)
    assert [str(r.sign) for r in regions] == [str(r.sign) for r in expected]
    assert [r.witness for r in regions] == [r.witness for r in expected]
    ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
    chosen, base = arrangement._simplicial_start(ints, arr.d)
    if len(regions) > CONES_PER_ARRANGEMENT:
        regions = random.Random(str(regions[0].sign)).sample(regions, CONES_PER_ARRANGEMENT)
    for region in regions:
        signs = region.sign.signs
        got = arrangement._cone_rays(signs, chosen, base, ints, arr.d)
        assert got == oracle.cone_rays(signs, chosen, base, ints, arr.d)
    return len(expected)


@pytest.mark.parametrize("seed", range(6))
def test_small_entry_arrangements(seed):
    """50 enumerable arrangements per seed, 300 in all; chi on every draw,
    the rank-deficient and parallel ones too."""
    kept = 0
    for arr in small_entry_arrangements(f"dd/{seed}"):
        assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
        if enumerable(arr):
            assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)
            kept += 1
            if kept == 50:
                break


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog(name):
    arr = CATALOG[name]()
    assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
    assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)


def test_benchmark_shapes():
    for arr in benchmark_shapes():
        assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
        assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)


@pytest.mark.parametrize(
    "arr",
    [
        catalog.braid_arrangement(6),
        arrangement.Arrangement(A=tuple((k,) for k in range(1, 3001))),
        arrangement.Arrangement(A=((1, 0, 1), (0, 1, 1), (1, 1, 2), (2, -1, 1), (2, 4, 6), (1, 2, 3))),
    ],
    ids=["braid6", "d1-3000-rows", "rank2-in-d3"],
)
def test_chi_past_enumeration(arr):
    """chi where enumeration is slow or refuses: 720 regions, thousands of
    parallel rows, rank 2 in d = 3 with two parallel rows."""
    assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
