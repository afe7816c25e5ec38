"""Ray-based polytopes of sqlinear.geometry against the subset-search oracle.

Both sides must return equal ``Polytope`` records: the same V_rep, H_rep,
incidence, f_vector, dim and ambient_dim, in the same order. The integer
helpers of the polytope layer (simplicial start, interior samples, swap
candidates, the type scan's signatures) must give what the Fraction rules
of the oracle give.
"""

import itertools
import random
from fractions import Fraction

import pytest

import polytope_oracle as oracle
from conftest import CATALOG, sample_kernel_point, sample_wall_point
from sqlinear import ratlin
from sqlinear.arrangement import Arrangement, SignVector, _ray, _simplicial_start, enumerate_regions, interior_samples
from sqlinear.catalog import random_arrangement
from sqlinear.geometry import (
    TYPE_SCAN_SAMPLES,
    chamber_arrangement,
    combinatorial_type_scan,
    dual_polytope,
    lognormal_polytope,
    swap_candidates,
)
from sqlinear.jsonio import model_from_json
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


def test_large_dual_matches_oracle():
    """One point where Q has dozens of facets: P's walk, reversed, is Q's."""
    rng = random.Random(20)
    model = make_model(random_arrangement(3, 10, rng, lo=-5, hi=5))
    y = sample_kernel_point(model, rng)
    dual = dual_polytope(model, y)
    assert len(dual.H_rep) >= 20
    assert dual == oracle.dual_polytope(model, y)
    assert lognormal_polytope(model, y) == oracle.lognormal_polytope(model, y)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_simplicial_rays_match_inverse(d):
    """Integer Gauss-Jordan rays equal the primitive columns of the inverse;
    a dependent row in front checks the greedy choice, and rank < d gives None."""
    rng = random.Random(40 + d)
    for _ in range(5):
        rows = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)) for _ in range(d + 2)]
        rows.insert(1, ratlin.scale(rows[0], Fraction(-3, 2)))
        if ratlin.is_zero(rows[0]):
            continue
        ints = [_ray(ratlin.cleared(row)[0]) for row in rows]
        assert _simplicial_start(ints, d) == oracle.simplicial_start(rows, d)
        flat = [row[:-1] + (Fraction(0),) for row in rows]  # rank < d
        assert _simplicial_start([ratlin.cleared(row)[0] for row in flat], d) is None
        assert oracle.simplicial_start(flat, d) is None


@pytest.mark.parametrize("name", ["steiner", "braid4", "circle", "four_points", "six_points", "halves"])
def test_interior_samples_match_fraction_steps(name):
    if name == "halves":
        arr = Arrangement(A=((Fraction(1, 2), Fraction(1, 3)), (1, Fraction(-2, 7)), (Fraction(3, 5), 1)))
    else:
        arr = CATALOG[name]()
    for region in enumerate_regions(arr):
        got = interior_samples(arr, region, 4, random.Random(region.key()))
        assert got == oracle.interior_samples(arr, region, 4, random.Random(region.key()))
        assert len(got) == 4
    chamber = chamber_arrangement(make_model(arr)).arrangement
    for region in enumerate_regions(chamber):
        assert interior_samples(chamber, region, 2, random.Random(1)) == oracle.interior_samples(
            chamber, region, 2, random.Random(1)
        )


def type_scan_oracle(model):
    """The scan point by point: Fraction samples, the full polytope's signature."""
    chamber = chamber_arrangement(model).arrangement
    rng = random.Random(0)
    report = {}
    for region in enumerate_regions(chamber):
        points = [region.witness] + oracle.interior_samples(chamber, region, TYPE_SCAN_SAMPLES - 1, rng)
        signatures = {lognormal_polytope(model, model.arr.form_values(x)).signature() for x in points}
        assert len(signatures) == 1
        report[region.key()] = signatures.pop()
    return report


@pytest.mark.parametrize("name", ["six_points", "steiner", "four_points", "random36"])
def test_type_scan_matches_per_point_oracle(name):
    if name == "random36":
        model = make_model(random_arrangement(3, 6, random.Random(36)))
    else:
        model = make_model(CATALOG[name]())
    assert combinatorial_type_scan(model) == type_scan_oracle(model)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", [6, 7])
def test_type_scan_matches_per_point_oracle_on_random_models(n, seed):
    # The scan walks each facet pattern's face lattice once; the oracle
    # builds every sample's polytope in full. Off the chamber walls the
    # polytope is simple, so in dimension 3 its facet count fixes its
    # f-vector, and in dimension 4 (n = 7) it does not.
    model = make_model(random_arrangement(3, n, random.Random(f"typescan/{n}/{seed}"), -5, 5))
    assert combinatorial_type_scan(model) == type_scan_oracle(model)


def test_type_scan_walks_each_facet_pattern_once(monkeypatch):
    """Every sample builds its own data cone, and the face lattice is walked
    once per distinct tuple of facet masks among them."""
    import sqlinear.geometry as geometry

    model = make_model(CATALOG["six_points"]())
    patterns, walks = [], []
    data_cone, face_layers = geometry._data_cone, geometry._face_layers

    def cone_spy(*args):
        cone = data_cone(*args)
        patterns.append(tuple(cone[2].values()))
        return cone

    def walk_spy(facets, dim):
        walks.append(tuple(facets))
        return face_layers(facets, dim)

    monkeypatch.setattr(geometry, "_data_cone", cone_spy)
    monkeypatch.setattr(geometry, "_face_layers", walk_spy)
    report = combinatorial_type_scan(model)
    assert len(patterns) == TYPE_SCAN_SAMPLES * len(report) == 36
    assert sorted(walks) == sorted(set(patterns))
    assert len(walks) == 6


def small_kernel_points(seed):
    """(model, y) on random (3, n) and (4, n) models, n <= 8, with entries in
    [-2, 2] and x in [-1, 1]^d: small entries make coordinates of equal size,
    hence swaps."""
    rng = random.Random(seed)
    for d, n in [(3, 5), (3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8)]:
        model = make_model(random_arrangement(d, n, rng, lo=-2, hi=2))
        points = 0
        while points < (2 if n < 8 else 1):
            y = model.arr.form_values([rng.randint(-1, 1) for _ in range(d)])
            if all(y):
                points += 1
                yield model, y


def golden_lognormal_inputs():
    from test_golden import CASES

    return [(model_from_json(doc), doc["y"]) for name, (_, doc, _) in CASES.items() if name.startswith("lognormal-")]


def test_swap_candidates_match_oracle():
    nonempty = 0
    for model, y in itertools.chain(small_kernel_points(61), small_kernel_points(66), golden_lognormal_inputs()):
        got = swap_candidates(model, y)
        assert got == oracle.swap_candidates(model, y)
        nonempty += bool(got)
    assert nonempty >= 9  # inputs with at least one candidate


def test_swap_candidates_on_3x14_point():
    """Twelve rows fixed by the swap x1 <-> x2 and the pair it exchanges: the
    images are exact kernel points with y's magnitudes, swapped."""
    fixed = [(1, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, -1), (1, 1, 2), (1, 1, -2),
             (2, 2, 1), (2, 2, -1), (1, 1, 3), (1, 1, -3), (3, 3, 1), (3, 3, -1)]
    model = make_model(Arrangement(A=[(1, 0, 0), *fixed, (0, 1, 0)]))
    y = model.arr.form_values((2, -1, 5))
    candidates = swap_candidates(model, y)
    assert (0, 13, (1,) * 14) in {(c.i, c.j, c.sigma) for c in candidates}
    keys = [(c.i, c.j, [-s for s in c.sigma]) for c in candidates]
    assert keys == sorted(keys) and len(set(map(str, keys))) == len(keys)
    for c in candidates:
        swapped = list(y)
        swapped[c.i], swapped[c.j] = swapped[c.j], swapped[c.i]
        assert c.sigma[0] == 1
        assert c.image == tuple(s * v for s, v in zip(c.sigma, swapped))
        assert ratlin.is_zero(ratlin.matvec(model.B.B, c.image))
        assert SignVector.from_values(c.image) != SignVector.from_values(y)
