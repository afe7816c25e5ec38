import random
from fractions import Fraction

import numpy as np
import pytest

from sqlinear import ratlin
from sqlinear.catalog import (
    braid_arrangement,
    circle_arrangement,
    four_points_arrangement,
    random_arrangement,
    seven_lines_arrangement,
    six_points_arrangement,
    steiner_arrangement,
)
from sqlinear.dpp import DPPModel, linear_projection_arrangement
from sqlinear.geometry import chamber_forms
from sqlinear.model import make_model


# Named arrangements for the differential tests of region enumeration.
CATALOG = {
    "steiner": steiner_arrangement,
    "braid4": lambda: braid_arrangement(4),
    "braid5": lambda: braid_arrangement(5),
    "circle": circle_arrangement,
    "four_points": four_points_arrangement,
    "six_points": six_points_arrangement,
    "seven_lines": seven_lines_arrangement,
    "dpp5": lambda: linear_projection_arrangement(
        DPPModel(Theta_fixed=((1, 2, 3, 4, 5), (2, -1, 4, 1, -3)), k=3, n=5)
    ).arrangement,
}


@pytest.fixture(scope="session")
def steiner():
    return make_model(steiner_arrangement())


@pytest.fixture(scope="session")
def braid4():
    return make_model(braid_arrangement(4))


@pytest.fixture(scope="session")
def circle():
    return make_model(circle_arrangement())


@pytest.fixture(scope="session")
def four_points():
    return make_model(four_points_arrangement())


@pytest.fixture(scope="session")
def six_points():
    return make_model(six_points_arrangement())


@pytest.fixture(scope="session")
def seven_lines():
    return make_model(seven_lines_arrangement())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def pyrng():
    return random.Random(20240811)


def random_model(d, n, pyrng):
    return make_model(random_arrangement(d, n, pyrng))


def grid_search_oracle(model, s, points=100_000):
    """Per-region log-likelihood argmax over a dense angular grid (d = 2)."""
    thetas = np.linspace(0.0, np.pi, points, endpoint=False)
    xs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    values = xs @ model.A_float.T
    mask = np.all(values != 0.0, axis=1)
    xs, values = xs[mask], values[mask]
    logs = 2.0 * np.log(np.abs(values)) @ np.asarray(s)
    logs -= np.asarray(s).sum() * np.log((values**2).sum(axis=1))
    signs = np.sign(values)
    signs *= signs[:, :1]  # canonical representative
    best = {}
    for k in range(len(xs)):
        key = tuple(int(v) for v in signs[k])
        if key not in best or logs[k] > best[key][0]:
            best[key] = (logs[k], xs[k])
    return best


def float_probabilities(model, x):
    """p = y^2 / sum(y^2) with y = A x in floats, for one point or each row of a stack."""
    y = np.asarray(x, dtype=float) @ model.A_float.T
    return y**2 / (y**2).sum(axis=-1, keepdims=True)


def canonical_x(x):
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    lead = next(v for v in x if abs(v) > 1e-12)
    return x if lead > 0 else -x


def sample_kernel_point(model, pyrng, avoid_chamber=True):
    """Random rational model point off the arrangement (and chamber walls)."""
    forms = chamber_forms(model) if avoid_chamber else ()
    for _ in range(200):
        x = tuple(Fraction(pyrng.randint(-9, 9)) for _ in range(model.d))
        y = model.arr.form_values(x)
        if any(v == 0 for v in y):
            continue
        if avoid_chamber and any(ratlin.dot(f.normal, x) == 0 for f in forms):
            continue
        return y
    raise AssertionError("could not sample a kernel point")


def sample_wall_point(model, pyrng):
    """Random rational model point on one chamber wall, off the arrangement."""
    normal = pyrng.choice(chamber_forms(model)).normal
    for _ in range(200):
        u = [pyrng.randint(-5, 5) for _ in range(model.d)]
        v = [pyrng.randint(-5, 5) for _ in range(model.d)]
        x = ratlin.sub(ratlin.scale(u, ratlin.dot(normal, v)), ratlin.scale(v, ratlin.dot(normal, u)))
        y = model.arr.form_values(x)
        if all(t != 0 for t in y):
            return y
    raise AssertionError("could not sample a wall point")
