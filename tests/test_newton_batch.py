"""Differential tests: the batched Newton solver against the per-region oracle.

Both make the same decisions per region, but the batch sums in another order,
so iterates agree to roundoff rather than bit for bit. Converged points must
agree to 1e-9 in x, the MLE must sit in the same region, and on the catalog
models the same regions must fail. Path tracking must round to the same
valuations, with slopes agreeing to 1e-6.
"""

import random

import numpy as np
import pytest

import newton_oracle as oracle
from sqlinear import catalog
from sqlinear.arrangement import enumerate_regions
from sqlinear.degeneration import TropicalData, estimate_valuations
from sqlinear.errors import NoConvergence
from sqlinear.mle import solve_all, solve_region
from sqlinear.model import make_model

CATALOG = {
    "steiner": catalog.steiner_arrangement,
    "braid4": lambda: catalog.braid_arrangement(4),
    "braid5": lambda: catalog.braid_arrangement(5),
    "four_points": catalog.four_points_arrangement,
    "six_points": catalog.six_points_arrangement,
}


def compare_solves(model, data, same_failures):
    regions = enumerate_regions(model.arr)
    for s in data:
        batch = solve_all(model, s, regions=regions)
        loop = oracle.solve_all(model, s, regions=regions)
        by_region = {p.region: p for p in loop.points}
        both = [p for p in batch.points if p.region in by_region]
        assert both, "no region solved by both"
        for point in both:
            other = by_region[point.region]
            assert np.abs(point.x - other.x).max() <= 1e-9, point.region
            assert point.hessian_max_eig == pytest.approx(other.hessian_max_eig, rel=1e-6)
        assert batch.mle.region == loop.mle.region
        if same_failures:
            assert [r for r, _ in batch.failures] == [r for r, _ in loop.failures]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_solves_match_oracle(name):
    model = make_model(CATALOG[name]())
    rng = np.random.default_rng(7)
    compare_solves(model, rng.uniform(0.05, 1.0, size=(2, model.n)), same_failures=True)


@pytest.mark.parametrize("d, n", [(3, 6), (4, 7), (4, 9)])
def test_random_arrangement_solves_match_oracle(d, n):
    pyrng = random.Random(f"batch/{d}x{n}")
    rng = np.random.default_rng(d * 100 + n)
    for _ in range(2 if n < 7 else 1):
        model = make_model(catalog.random_arrangement(d, n, pyrng))
        data = rng.uniform(0.05, 1.0, size=(2, n))
        data[1] *= 40.0  # larger totals reach the roundoff floor sooner
        compare_solves(model, data, same_failures=False)


def test_failing_tolerance_fails_the_same_regions(steiner):
    s = np.array([0.4, 0.3, 0.2, 0.1])
    regions = enumerate_regions(steiner.arr)
    for region in regions:
        with pytest.raises(NoConvergence) as batch_err:
            solve_region(steiner, s, region, 1e-300)
        with pytest.raises(NoConvergence) as loop_err:
            oracle.solve_region(steiner, s, region, 1e-300)
        assert batch_err.value.trace and loop_err.value.trace


def test_warm_start_matches_oracle(braid4):
    s = np.random.default_rng(3).uniform(0.1, 1.0, size=braid4.n)
    for region in enumerate_regions(braid4.arr)[:4]:
        start = oracle.solve_region(braid4, s * 0.5 + 0.2, region).x
        batch = solve_region(braid4, s, region, start=-start)
        loop = oracle.solve_region(braid4, s, region, start=-start)
        assert np.abs(batch.x - loop.x).max() <= 1e-9


@pytest.mark.parametrize(
    "name, w, grid",
    [
        ("steiner", (0, 3, 4, 5), (1e-1, 10**-1.5, 1e-2, 10**-2.5)),
        ("braid4", (0, 1, 2, 3, 4, 5), tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))),
    ],
)
def test_tracking_matches_oracle(name, w, grid):
    model = make_model(CATALOG[name]())
    trop = TropicalData(w=w, anchor=0)
    expected = oracle.track_slopes(model, w, 0, grid)
    estimates = estimate_valuations(model, trop, eps_grid=grid)
    assert [str(e.region.sign) for e in estimates] == list(expected)
    for est in estimates:
        slopes = expected[str(est.region.sign)]
        assert np.abs(np.array(est.slopes) - slopes).max() <= 1e-6
        targets = [0.0 if abs(v) < abs(v - (wj - w[0])) else wj - w[0] for v, wj in zip(slopes, w)]
        assert [float(z) for z in est.point.z] == targets
