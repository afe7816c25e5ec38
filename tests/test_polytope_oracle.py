"""The incidence walk of sqlinear.geometry against the rank-based oracle.

Both sides must return equal ``Polytope`` records: the same V_rep, H_rep,
incidence, f_vector, dim and ambient_dim, in the same order.
"""

import random

import pytest

import polytope_oracle as oracle
from conftest import sample_kernel_point, sample_wall_point
from sqlinear.catalog import random_arrangement
from sqlinear.geometry import dual_polytope, lognormal_polytope, polytope_from_points
from sqlinear.model import make_model


def kernel_points(seed, count, d, on_wall):
    """(model, y) pairs on random (d, n) arrangements, on or off chamber walls."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        model = make_model(random_arrangement(d, rng.randint(d + 2, d + 4), rng, lo=-5, hi=5))
        try:
            out.append((model, (sample_wall_point if on_wall else sample_kernel_point)(model, rng)))
        except AssertionError:
            continue
    return out


@pytest.mark.parametrize("on_wall", [False, True], ids=["generic", "wall"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_lognormal_and_dual_match_oracle(d, on_wall):
    non_simple = 0
    for model, y in kernel_points(100 * d + on_wall, 6 if d < 4 else 3, d, on_wall):
        poly = lognormal_polytope(model, y)
        assert poly == oracle.lognormal_polytope(model, y)
        assert poly.dim == model.n - model.d
        assert dual_polytope(model, y) == oracle.dual_polytope(model, y)
        non_simple += not poly.is_simple()
    assert (non_simple > 0) == on_wall


def integer_point_set(rng, dim, ambient):
    """Random integer points spanning a dim-dimensional hull in the ambient space.

    Mixes in midpoints of point pairs (inside the hull, inside facets or on
    edges) and repeated points.
    """
    basis = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(dim)]
    shift = [rng.randint(-3, 3) for _ in range(ambient)]
    params = [[2 * rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + rng.randint(1, 5))]
    params += [[(a + b) // 2 for a, b in zip(*rng.sample(params, 2))] for _ in range(rng.randint(1, 3))]
    params += rng.sample(params, 2)
    return [
        [shift[c] + sum(t * row[c] for t, row in zip(p, basis)) for c in range(ambient)]
        for p in params
    ]


def test_points_match_oracle():
    rng = random.Random(7)
    seen_dims = set()
    for _ in range(120):
        ambient = rng.randint(1, 4)
        points = integer_point_set(rng, rng.randint(1, ambient), ambient)
        poly = polytope_from_points(points)
        assert poly == oracle.polytope_from_points(points)
        seen_dims.add((poly.dim, poly.dim < ambient))
    assert {(1, False), (1, True), (2, False), (2, True), (3, False), (3, True), (4, False)} <= seen_dims


@pytest.mark.parametrize(
    "points",
    [
        [(2, 3)],
        [(1, 1, 1), (1, 1, 1)],
        [(0,), (3,), (1,), (3,), (2,)],
        [(0, 0, 1), (2, 2, 1), (1, 1, 1), (0, 0, 1)],
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (0, 1), (1, 1), (2, 2)],
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 0), (0, 0, 0)],
    ],
    ids=["point", "repeated-point", "segment", "segment-in-3d", "square-with-extras", "simplex-with-extras"],
)
def test_small_configurations_match_oracle(points):
    poly = polytope_from_points(points)
    assert poly == oracle.polytope_from_points(points)
