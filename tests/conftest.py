import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sqlinear import arrangement, ratlin
from sqlinear.arrangement import Arrangement, KernelComplement
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
from sqlinear.model import SquaredLinearModel, make_model, parameters_of


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


def non_essential_model():
    """A model on three rows that span one line in d = 2, with B A = 0. The
    model takes any B; the exact layers that need rank(A) = d check it."""
    return SquaredLinearModel(Arrangement(((1, 0), (2, 0), (3, 0))), KernelComplement(((2, -1, 0), (3, 0, -1))))


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


def degenerate_arrangement(rng, d, n, essential):
    """n nonzero integer rows in d unknowns built to collide: repeated,
    negated or scaled copies and combinations of two earlier rows, among
    fresh ones; with ``essential`` False the last column is zero."""
    width = d if essential else d - 1
    rows = [tuple(rng.randint(-3, 3) for _ in range(width)) for _ in range(rng.randint(1, width))]
    rows = [row for row in rows if any(row)] or [(1,) + (0,) * (width - 1)]
    while len(rows) < n:
        a, b = rng.choice(rows), rng.choice(rows)
        kind = rng.randrange(4)
        if kind == 0:
            row = a
        elif kind == 1:
            row = tuple(rng.choice((-2, -1, 2, 3)) * x for x in a)
        elif kind == 2:
            row = tuple(rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b))
        else:
            row = tuple(rng.randint(-3, 3) for _ in range(width))
        if any(row):
            rows.append(row)
    return Arrangement(A=tuple(row + (0,) * (d - width) for row in rows))


def pencil(rng, n, spread=4):
    """n planes in d = 3: n - 2 through one line, in distinct directions
    p u + q v with |p| <= spread and 0 < q <= spread + 1, and two more;
    redrawn until no two rows are parallel. The default spread has 31
    directions."""
    directions = [(p, q) for p in range(-spread, spread + 1) for q in range(1, spread + 2) if math.gcd(p, q) == 1]
    while True:
        line = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)]
        rows = [tuple(p * a + q * b for a, b in zip(*line)) for p, q in rng.sample(directions, n - 2)]
        rows += [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)]
        if all(any(row) for row in rows) and len({ratlin.primitive(row) for row in rows}) == n:
            arr = Arrangement(A=tuple(rows))
            if arr.rank() == arr.d:
                return arr


def count_row_updates(monkeypatch, module=arrangement):
    """Count the fraction-free row updates of the chi walk in ``module``;
    returns the counter.

    Both the library's walk and :func:`dd_oracle.persistent_characteristic_polynomial`
    build each updated row from one call of ``zip`` in their own frame, so
    a ``zip`` shadowed in the module counts the updates as the calls made
    from a function of the walk's name; the record the walk returns zips
    its fields in ``Record.__init__``, which is not counted. Callers assert
    the count positive, so a walk that stops calling it fails instead of
    meeting its bound with a count of 0.
    """
    calls = [0]

    def counted(*args):
        calls[0] += sys._getframe(1).f_code.co_name.endswith("characteristic_polynomial")
        return zip(*args)

    monkeypatch.setattr(module, "zip", counted, raising=False)
    return calls
