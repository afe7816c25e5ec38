"""Ray-based polytopes of sqlinear.geometry against the subset-search oracle.

Both sides must return equal ``Polytope`` records: the same V_rep, H_rep,
incidence, f_vector, dim and ambient_dim, in the same order. The integer
helpers of the polytope layer (simplicial start, swap candidates, the type
scan's signatures) must give what the Fraction rules of the oracle give.
"""

import itertools
import random
from fractions import Fraction

import pytest

import polytope_oracle as oracle
from conftest import CATALOG, sample_kernel_point, sample_wall_point
from sqlinear import ratlin
from sqlinear.arrangement import Arrangement, SignVector, _simplicial_start, enumerate_regions, ml_degree
from sqlinear.catalog import random_arrangement
from sqlinear.errors import RankDeficient
from sqlinear.geometry import (
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
        non_simple += not oracle.is_simple(poly)
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
    """Integer Gauss-Jordan rays equal the content-free columns of the
    inverse; a dependent row in front checks the greedy choice, and rank < d
    raises RankDeficient naming the rank (the oracle gives None)."""
    rng = random.Random(40 + d)
    for _ in range(5):
        rows = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)) for _ in range(d + 2)]
        rows.insert(1, ratlin.scale(rows[0], Fraction(-3, 2)))
        if ratlin.is_zero(rows[0]):
            continue
        ints = [ratlin.content_free(ratlin.cleared(row)[0]) for row in rows]
        assert _simplicial_start(ints, d) == oracle.simplicial_start(rows, d)
        flat = [row[:-1] + (Fraction(0),) for row in rows]  # rank < d
        with pytest.raises(RankDeficient, match=f"got rank {ratlin.rank(flat)}$"):
            _simplicial_start([ratlin.cleared(row)[0] for row in flat], d)
        assert oracle.simplicial_start(flat, d) is None


def _strictly_inside(arr, region, point):
    return all(s * v > 0 for s, v in zip(region.sign.signs, arr.form_values(point)))


@pytest.mark.parametrize("name", ["steiner", "braid4", "circle", "four_points", "six_points", "halves"])
def test_oracle_interior_samples_lie_inside_their_region(name):
    """The type scan oracle checks a region's polytope type at these points,
    so each must lie strictly inside its region and differ from the witness."""
    if name == "halves":
        arr = Arrangement(A=((Fraction(1, 2), Fraction(1, 3)), (1, Fraction(-2, 7)), (Fraction(3, 5), 1)))
    else:
        arr = CATALOG[name]()
    chamber = chamber_arrangement(make_model(arr)).arrangement
    for target, count in ((arr, 4), (chamber, 2)):
        for region in enumerate_regions(target):
            got = oracle.interior_samples(target, region, count, random.Random(str(region.sign)))
            assert len(set(got)) == count
            assert region.witness not in got
            assert all(_strictly_inside(target, region, x) for x in [region.witness] + got)


# Points per chamber region at which the oracle builds the polytope: the
# witness and interior samples drawn from random.Random(0).
ORACLE_SAMPLES = 3


def type_scan_oracle(model, region_count=None):
    """The scan point by point: at the witness and Fraction interior samples
    of each chamber region, the full polytope's signature, which must not
    change inside the region. With ``region_count``, only that many regions
    are checked, drawn by the same seeded rng."""
    chamber = chamber_arrangement(model).arrangement
    rng = random.Random(0)
    report = {}
    regions = enumerate_regions(chamber)
    for region in regions if region_count is None else rng.sample(regions, region_count):
        points = [region.witness] + oracle.interior_samples(chamber, region, ORACLE_SAMPLES - 1, rng)
        signatures = {oracle.signature(lognormal_polytope(model, model.arr.form_values(x))) for x in points}
        assert len(signatures) == 1
        report[str(region.sign)] = signatures.pop()
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


def test_type_scan_matches_per_point_oracle_in_dimension_four():
    """The scan reads every chamber region of a (4, 6) model (26 chamber
    planes, 1622 regions), and the oracle checks a seeded 300 of them."""
    model = make_model(random_arrangement(4, 6, random.Random("typescan/4/6"), -5, 5))
    report = combinatorial_type_scan(model)
    assert len(report) == ml_degree(chamber_arrangement(model).arrangement)
    expected = type_scan_oracle(model, region_count=300)
    assert {key: report[key] for key in expected} == expected


def test_type_scan_walks_each_facet_pattern_once(monkeypatch):
    """Every chamber region builds one data cone, at its witness, and the
    face lattice is walked once per distinct tuple of facet masks among them."""
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
    assert len(patterns) == len(report) == 12
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
