"""Acceptance suite: one test per criterion, reported as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 7 is split: the hull equation required for the
quadrilateral example contradicts the rank-condition construction the rest
of the criterion relies on, so that single assertion lives in its own test
and is expected to stay red (its docstring carries the analysis), while
every other clause of the criterion is covered by the passing test.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import (
    canonical_x,
    exact_probabilities,
    float_probabilities,
    grid_search_oracle,
    limit_gap,
    minor_space_rank,
    noninjectivity_witness,
    steiner_quartic,
)
from polytope_oracle import is_simple, signature
from sqlinear import ratlin
from sqlinear.arrangement import (
    characteristic_polynomial,
    enumerate_regions,
    ml_degree,
)
from sqlinear.catalog import random_arrangement
from sqlinear.degeneration import (
    TropicalData,
    estimate_valuations,
    tropical_predictions,
    unit_data_solutions,
)
from sqlinear.dpp import DPPModel, dpp_ml_degree_l2, dpp_probabilities, linear_projection_arrangement
from sqlinear.geometry import (
    chamber_arrangement,
    dual_polytope,
    log_voronoi_scan,
    lognormal_polytope,
    swap_candidates,
)
from sqlinear.geometry import chamber_forms
from sqlinear.mle import Likelihood, likelihood_matrix, solve_all
from sqlinear.model import make_model, minor_space_dimension, singular_subspaces


def report(number: int, text: str):
    print(f"[criterion {number:02d}] PASS: {text}")


def test_criterion_01_steiner_ml_degree(steiner):
    start = time.perf_counter()
    chi = characteristic_polynomial(steiner.arr)
    assert chi.coeffs == (1, -4, 6, -3)
    assert ml_degree(steiner.arr) == 7
    assert len(enumerate_regions(steiner.arr)) == 7
    elapsed = time.perf_counter() - start
    report(1, f"Steiner chi = t^3-4t^2+6t-3, ML degree 7, 7 regions ({elapsed:.3f}s)")


def test_criterion_02_per_region_solving(steiner):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    regions = enumerate_regions(steiner.arr)
    for _ in range(20):
        s = rng.uniform(0.05, 1.0, size=4)
        result = solve_all(steiner, s, regions=regions)
        assert len(result.points) == 7 and not result.failures
        for point in result.points:
            assert point.p.min() > 1e-12
            assert point.grad_norm <= 1e-8
            sigma = np.linalg.svd(
                likelihood_matrix(steiner, s, point.x), compute_uv=False
            )
            assert sigma[-1] / sigma[0] <= 1e-7
    elapsed = time.perf_counter() - start
    report(2, f"20 random data vectors: 7 interior critical points each ({elapsed:.2f}s)")


def test_criterion_03_braid(braid4):
    start = time.perf_counter()
    chi = characteristic_polynomial(braid4.arr)
    assert chi.coeffs == (1, -6, 11, -6)  # (t-1)(t-2)(t-3)
    assert ml_degree(braid4.arr) == 12
    regions = enumerate_regions(braid4.arr)
    assert len(regions) == 12
    rng = np.random.default_rng(3)
    result = solve_all(braid4, rng.uniform(0.1, 1.0, size=6), regions=regions)
    assert len(result.points) == 12 and not result.failures
    elapsed = time.perf_counter() - start
    report(3, f"braid c=4: chi=(t-1)(t-2)(t-3), 12 regions, 12 critical points ({elapsed:.2f}s)")


def test_criterion_04_generic_mu_counts():
    start = time.perf_counter()
    rng = random.Random(4)
    gf_coefficient = lambda d, n: sum(math.comb(d - 1 - b + n - d - 1, n - d - 1) * 2**b for b in range(d))
    for d, n in ((2, 4), (3, 5), (3, 6), (4, 6), (4, 7)):
        mu = sum(math.comb(n - 1, i) for i in range(d))
        assert mu == gf_coefficient(d, n)
        for _ in range(20):
            arr = random_arrangement(d, n, rng)
            assert len(enumerate_regions(arr)) == mu
    elapsed = time.perf_counter() - start
    report(4, f"region counts match mu for 5 shapes x 20 random arrangements ({elapsed:.1f}s)")


def test_criterion_05_degenerate_solutions(steiner, four_points):
    start = time.perf_counter()
    solutions = unit_data_solutions(steiner, 0)
    points = {tuple(int(v) for v in sol.y) for sol in solutions}
    assert points == {
        (1, 0, 0, 1),
        (1, 0, -1, 0),
        (1, -1, 0, 0),
        (2, 0, -1, 1),
        (2, -1, 0, 1),
        (2, -1, -1, 0),
        (3, -1, -1, 1),
    }
    assert all(sol.generic_flag for sol in solutions)
    collided = [sol for sol in unit_data_solutions(four_points, 0) if not sol.generic_flag]
    assert {sol.J for sol in collided} == {(2,), ()}
    elapsed = time.perf_counter() - start
    report(5, f"anchor-1 closed forms exact incl (3:-1:-1:1); collision flagged ({elapsed:.3f}s)")


def test_criterion_06_tropical_mle(steiner):
    start = time.perf_counter()
    trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
    predictions = tropical_predictions(steiner, trop)
    expected = {
        (0, 3, 4, 0), (0, 3, 0, 5), (0, 0, 4, 5),
        (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5), (0, 0, 0, 0),
    }
    assert {tuple(int(v) for v in p.z) for p in predictions} == expected
    estimates = estimate_valuations(steiner, trop)
    assert {e.point.z for e in estimates} == {p.z for p in predictions}
    assert max(e.residual for e in estimates) <= 0.1
    solutions = {sol.J: sol for sol in unit_data_solutions(steiner, 0)}
    assert sorted(e.point.J for e in estimates) == sorted(solutions)
    worst = max(limit_gap(steiner, e, solutions[e.point.J], 0) for e in estimates)
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    report(6, f"7 tropical predictions tracked; worst residual ok, limit gap {worst:.1e} ({elapsed:.1f}s)")


QUAD_Y = (3, 2, 1, -1)


def test_criterion_07_lognormal_swaps_and_scan(four_points):
    start = time.perf_counter()
    poly = lognormal_polytope(four_points, QUAD_Y)
    assert poly.dim == 2
    assert len(poly.V_rep) == 4 and poly.f_vector == (4, 4)
    for vertex in poly.V_rep:  # inside the simplex
        assert all(v >= 0 for v in vertex) and sum(vertex) == 1
    # hull normal: the required example vector, scaled by diag(y)^-1
    u = tuple(Fraction(c, y) for c, y in zip((1, -1, -3, -2), QUAD_Y))
    assert all(ratlin.dot(u, vertex) == 0 for vertex in poly.V_rep)

    swaps = {
        (c.i + 1, c.j + 1, c.sigma, tuple(int(v) for v in c.image))
        for c in swap_candidates(four_points, QUAD_Y)
    }
    assert (1, 3, (1, 1, 1, -1), (1, 2, 3, 1)) in swaps
    assert (2, 4, (1, -1, -1, -1), (3, 1, -1, -2)) in swaps

    total = sum(v * v for v in QUAD_Y)
    s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
    va = (Fraction(0), Fraction(0), Fraction(2, 5), Fraction(3, 5))
    vb = (Fraction(0), Fraction(4, 5), Fraction(0), Fraction(1, 5))
    target = tuple(Fraction(2, 5) * a + Fraction(3, 5) * b for a, b in zip(va, vb))
    end = tuple(s + Fraction(9, 10) * (t - s) for s, t in zip(s_star, target))
    steps = 12
    profile = log_voronoi_scan(four_points, QUAD_Y, s_star, end, steps=steps)
    assert len(profile.crossings) == 1
    t_cross, before, after = profile.crossings[0]
    assert (before, after) == ("+++-", "++++")
    exact = Fraction(100, 117)  # s_1(t) = s_3(t) on this segment
    assert abs(t_cross - float(exact)) <= 1.0 / steps
    elapsed = time.perf_counter() - start
    report(7, f"quadrilateral + swap pair + s1=s3 switch at {t_cross:.5f} ~ 100/117 ({elapsed:.1f}s)")


def test_criterion_07_required_hull_plane(four_points):
    """Criterion 7's required cutting plane, asserted exactly as required.

    This stays red on purpose: the plane s1 - s2 - 3s3 - 2s4 = 0 is not the
    affine hull of the log-normal polytope at y = (3, 2, 1, -1). The hull
    normal is that vector divided coordinatewise by y, i.e. (2, -3, -18, 12)
    after clearing denominators, verified three independent ways (gradient
    conditions at y, 4x4 determinant cofactors of the rank condition, and a
    numeric criticality sweep along both candidate planes); the required
    plane would moreover cut a triangle out of the simplex, not the
    quadrilateral the same criterion asserts. Everything else in criterion 7
    passes in test_criterion_07_lognormal_swaps_and_scan.
    """
    poly = lognormal_polytope(four_points, QUAD_Y)
    required = (1, -1, -3, -2)
    off_plane = [v for v in poly.V_rep if ratlin.dot(required, v) != 0]
    assert not off_plane, (
        "required plane misses vertices "
        f"{[[str(c) for c in v] for v in off_plane]}; the true hull normal is "
        "(2, -3, -18, 12) = required vector / y coordinatewise"
    )


def test_criterion_08_duality(four_points):
    start = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    while checked < 50:
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 8)
        try:
            model = make_model(random_arrangement(d, n, rng, lo=-5, hi=5))
        except Exception:
            continue
        x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
        y = model.arr.form_values(x)
        if any(v == 0 for v in y):
            continue
        if any(ratlin.dot(f.normal, x) == 0 for f in chamber_forms(model)):
            continue
        pi = lognormal_polytope(model, y)
        q = dual_polytope(model, y)
        assert pi.f_vector == tuple(reversed(q.f_vector))
        assert is_simple(pi)  # off the chamber arrangement
        checked += 1
    elapsed = time.perf_counter() - start
    report(8, f"reversed f-vector duality + simplicity on 50 instances ({elapsed:.1f}s)")


def test_criterion_09_chamber_arrangement(six_points):
    start = time.perf_counter()
    chamber = chamber_arrangement(six_points)
    assert chamber.arrangement.n == 12
    prims = {ratlin.primitive(row) for row in chamber.arrangement.A}
    assert (3, -7) in prims  # the point (70:30) = (7:3)
    y69 = six_points.arr.form_values((Fraction(69), Fraction(30)))
    y71 = six_points.arr.form_values((Fraction(71), Fraction(30)))
    sig69 = signature(lognormal_polytope(six_points, y69))
    sig71 = signature(lognormal_polytope(six_points, y71))
    assert sig69 != sig71
    elapsed = time.perf_counter() - start
    report(9, f"12 chamber points incl 3x1-7x2; types differ across (7:3) ({elapsed:.2f}s)")


def test_criterion_10_implicit_generators(steiner, circle, braid4):
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = float_probabilities(steiner, rng.normal(size=3))
        assert abs(steiner_quartic(p / p.sum())) <= 1e-10
    for x in ((2, 3), (-1, 5), (7, 2), (3, -4)):
        p = exact_probabilities(circle, x)
        assert 4 * p[0] * p[1] == (p[2] - p[0] - p[1]) ** 2
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(1, 5), 2))}
    for _ in range(100):
        p = float_probabilities(braid4, rng.normal(size=3))
        M = np.empty((3, 3))
        for i in range(1, 4):
            M[i - 1, i - 1] = 2 * p[index[(i, 4)]]
            for j in range(i + 1, 4):
                M[i - 1, j - 1] = M[j - 1, i - 1] = (
                    p[index[(i, 4)]] + p[index[(j, 4)]] - p[index[(i, j)]]
                )
        for rows in itertools.combinations(range(3), 2):
            for cols in itertools.combinations(range(3), 2):
                minor = (
                    M[rows[0], cols[0]] * M[rows[1], cols[1]]
                    - M[rows[0], cols[1]] * M[rows[1], cols[0]]
                )
                assert abs(minor) <= 1e-10
    dims = [minor_space_dimension(d) for d in (2, 3, 4, 5)]
    assert dims == [minor_space_rank(d) for d in (2, 3, 4, 5)] == [1, 6, 20, 50]
    elapsed = time.perf_counter() - start
    report(10, f"quartic, conic, braid minors vanish; minor dims 1,6,20,50 ({elapsed:.1f}s)")


def test_criterion_11_singular_locus(steiner):
    start = time.perf_counter()
    rng = random.Random(11)
    model46 = make_model(random_arrangement(4, 6, rng))
    subs46 = singular_subspaces(model46)
    assert len(subs46) == 10
    assert all(s.projective_dimension == 1 for s in subs46)
    subs_steiner = singular_subspaces(steiner)
    assert len(subs_steiner) == 3
    for model, subs in ((model46, subs46), (steiner, subs_steiner)):
        for sub in subs:
            x, xp = noninjectivity_witness(sub, model)
            assert exact_probabilities(model, x) == exact_probabilities(model, xp)
            assert ratlin.primitive(x) != ratlin.primitive(xp)
    elapsed = time.perf_counter() - start
    report(11, f"10 lines (d=4,n=6), 3 lines (Steiner), witness pairs exact ({elapsed:.2f}s)")


def test_criterion_12_dpp():
    start = time.perf_counter()
    rng = random.Random(12)

    def random_fixed(rows, n):
        while True:
            M = tuple(
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
                for _ in range(rows)
            )
            if ratlin.rank(M) == rows:
                return M

    for n in (4, 5, 6):
        k = n - 2
        dpp = DPPModel(Theta_fixed=random_fixed(k - 1, n), k=k, n=n)
        disc = linear_projection_arrangement(dpp)
        assert disc.arrangement.n == len(dpp.states)
        expected = dpp_ml_degree_l2(n)
        assert ml_degree(disc.arrangement) == expected
        assert len(enumerate_regions(disc.arrangement)) == expected
    assert dpp_ml_degree_l2(6) == 70
    nprng = np.random.default_rng(12)
    for _ in range(100):
        k = int(nprng.integers(2, 5))
        n = int(nprng.integers(k + 1, k + 5))
        dist = dpp_probabilities(nprng.normal(size=(k, n)))
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    report(12, f"ML degrees 12/31/70 by formula and enumeration; Cauchy-Binet ok ({elapsed:.1f}s)")


def test_criterion_13_oracle_equivalence(four_points):
    start = time.perf_counter()
    rng = random.Random(13)
    nprng = np.random.default_rng(13)
    models = [four_points]
    models.append(make_model(random_arrangement(2, 4, rng)))
    models.append(make_model(random_arrangement(2, 5, rng)))
    for model in models:
        s = nprng.uniform(0.15, 1.0, size=model.n)
        oracle = grid_search_oracle(model, s)
        result = solve_all(model, s)
        assert len(result.points) == len(oracle)
        for point in result.points:
            _, x_grid = oracle[tuple(point.region.signs)]
            gap = np.abs(canonical_x(point.x) - canonical_x(x_grid)).max()
            assert gap <= 1e-4
    elapsed = time.perf_counter() - start
    report(13, f"Newton == 1e5-point grid search on 3 two-parameter models ({elapsed:.1f}s)")


def test_criterion_14_gradient_correctness():
    start = time.perf_counter()
    rng = random.Random(14)
    nprng = np.random.default_rng(14)
    step = 1e-6
    checked = 0
    while checked < 100:
        d = rng.choice([2, 3, 4])
        n = rng.randint(d + 1, d + 4)
        model = make_model(random_arrangement(d, n, rng))
        x = nprng.normal(size=d)
        if np.abs(model.A_float @ x).min() < 1e-2:
            continue
        s = nprng.uniform(0.1, 1.0, size=n)
        loglik = Likelihood(model.A_float, s)
        g = loglik.hessian((model.A_float @ x)[None, :])[1][0]
        e = step * np.eye(d)
        ahead, behind = loglik(np.vstack([x + e, x - e]) @ model.A_float.T).reshape(2, d)
        fd = (ahead - behind) / (2 * step)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))
        checked += 1
    elapsed = time.perf_counter() - start
    report(14, f"central differences match analytic gradients on 100 triples ({elapsed:.1f}s)")
