"""Ray-based polytopes of sqlinear.geometry against the subset-search oracle.

Both sides must return equal ``Polytope`` records: the same V_rep, H_rep,
incidence, f_vector, dim and ambient_dim, in the same order.
"""

import random

import pytest

import polytope_oracle as oracle
from conftest import sample_kernel_point, sample_wall_point
from sqlinear.arrangement import Arrangement
from sqlinear.catalog import random_arrangement
from sqlinear.geometry import dual_polytope, lognormal_polytope
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


def coincident_column_points():
    """Wall point where B diag(y)^-1 has two equal columns: P lists {0, 1} twice."""
    model = make_model(Arrangement(A=((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1))))
    return model, (1, 1, 2, 2, 4)


@pytest.mark.parametrize("on_wall", [False, True], ids=["generic", "wall"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_lognormal_and_dual_match_oracle(d, on_wall):
    non_simple = 0
    cases = kernel_points(100 * d + on_wall, 6 if d < 4 else 3, d, on_wall)
    if (d, on_wall) == (3, True):
        cases.append(coincident_column_points())
    for model, y in cases:
        poly = lognormal_polytope(model, y)
        assert poly == oracle.lognormal_polytope(model, y)
        assert poly.dim == model.n - model.d
        assert dual_polytope(model, y) == oracle.dual_polytope(model, y)
        non_simple += not poly.is_simple()
    assert (non_simple > 0) == on_wall
