import itertools
import random
from collections import Counter
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
from sqlinear.model import make_model, parameters_of


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


def exact_probabilities(model, x):
    """p = y^2 / sum(y^2) with y = A x, exact for rational x."""
    squares = [v * v for v in model.arr.form_values(x)]
    total = sum(squares)
    return tuple(v / total for v in squares)


def r_matrix_at(gens, p):
    """The symmetric matrix R of :class:`sqlinear.model.VeroneseGenerators`
    at a probability vector p; exact for rational p."""
    return tuple(tuple(sum(c * v for c, v in zip(entry, p)) for entry in row) for row in gens.R)


def steiner_quartic(p):
    """The degree-4 equation of the four-line model in P^3: it vanishes on the
    model and is 1 at each unit vector; exact on Fractions."""
    total = sum(v**4 for v in p)
    total += 6 * sum(p[i] ** 2 * p[j] ** 2 for i, j in itertools.combinations(range(4), 2))
    total -= 4 * sum(p[i] ** 3 * p[j] for i, j in itertools.permutations(range(4), 2))
    total += 4 * sum(
        p[i] ** 2 * p[j] * p[k]
        for i in range(4)
        for j, k in itertools.combinations([t for t in range(4) if t != i], 2)
    )
    return total - 40 * p[0] * p[1] * p[2] * p[3]


def minor_space_rank(d):
    """Exact rank of the 2x2 minors of a symmetric d x d matrix, each written
    as a row of coefficients over the quadratic monomials in its entries."""
    def entry(i, j):
        return min(i, j), max(i, j)

    rows = []
    for i, k in itertools.combinations(range(d), 2):
        for j, l in itertools.combinations(range(d), 2):
            row = Counter()
            row[tuple(sorted((entry(i, j), entry(k, l))))] += 1
            row[tuple(sorted((entry(i, l), entry(k, j))))] -= 1
            rows.append(row)
    monomials = sorted(set().union(*rows))
    return ratlin.rank([[row[m] for m in monomials] for row in rows])


def noninjectivity_witness(subspace, model):
    """(x, x') with A x' = A_{I,J} x for x the sum of the subspace's basis:
    the forms at x and x' agree up to the signs on J, so p(x) = p(x'). The
    solve is least squares, so when A_{I,J} x is not in the image of A (the
    subspace is wrong) the two probability vectors differ."""
    x = tuple(map(sum, zip(*subspace.basis)))
    flipped = [-v if i in subspace.J else v for i, v in enumerate(model.arr.form_values(x))]
    (xp,) = parameters_of(model, [flipped])
    return x, xp


def limit_gap(model, estimate, solution, anchor):
    """Largest coordinate gap between y = A x at a tracked region's last
    point and a closed-form degenerate solution at ``anchor``, both scaled to
    anchor coordinate one."""
    y = np.array(solution.y, dtype=float)
    last = model.A_float @ np.array(estimate.x_track[-1])
    return np.abs(y / y[anchor] - last / last[anchor]).max()


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
