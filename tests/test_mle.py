import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import canonical_x as canonical
from conftest import float_probabilities, grid_search_oracle
from polytope_oracle import interior_samples
from sqlinear.arrangement import (
    Region,
    characteristic_polynomial,
    enumerate_regions,
    ml_degree,
)
from sqlinear.catalog import random_arrangement
from sqlinear.errors import BoundaryData, NoConvergence, NumericError, ValidationError, ZeroPoint
from sqlinear import mle
from sqlinear.mle import (
    CriticalPoint,
    Likelihood,
    SolveAllResult,
    _solve_batch,
    likelihood_matrix,
    normalize_parameter,
    rank_defect,
    solve_all,
    to_floats,
)
from sqlinear.model import make_model

UNDERFLOW = "coordinate underflow at convergence: cannot take the sign vector of a zero value"


class TestLikelihoodMatrix:
    def test_steiner_structure(self, steiner):
        s = np.array([0.4, 0.3, 0.2, 0.1])
        x = np.array([1.0, 2.0, -0.5])
        M = likelihood_matrix(steiner, s, x)
        values = steiner.A_float @ x
        assert M.shape == (3, 4)
        assert np.array_equal(M[0], s)
        assert np.allclose(M[1], values**2)
        assert np.allclose(M[2], [values[0], values[1], values[2], -values[3]])

    def test_braid_shape(self, braid4):
        s = np.linspace(0.1, 0.6, 6)
        M = likelihood_matrix(braid4, s, np.array([1.0, 2.0, 3.5]))
        assert M.shape == (5, 6)

    def test_bilinear_split(self, pyrng, rng):
        model = make_model(random_arrangement(3, 6, pyrng))
        x = rng.normal(size=3)
        s1, s2 = rng.uniform(0.1, 1, size=(2, 6))
        M1 = likelihood_matrix(model, s1, x)
        M2 = likelihood_matrix(model, s2, x)
        assert np.array_equal(M1[1:], M2[1:])
        assert M1.shape == (6 - 3 + 2, 6)


class TestRankDefect:
    def test_zero_at_random_pairs(self, steiner, rng):
        for _ in range(10):
            M = likelihood_matrix(
                steiner, rng.uniform(0.1, 1, size=4), rng.normal(size=3)
            )
            assert rank_defect(M, 1e-8) == 0

    def test_duplicated_row(self, steiner, rng):
        x = rng.normal(size=3)
        s = (steiner.A_float @ x) ** 2
        assert rank_defect(likelihood_matrix(steiner, s, x), 1e-8) >= 1

    def test_at_critical_points(self, steiner, rng):
        s = rng.uniform(0.2, 1.0, size=4)
        for point in solve_all(steiner, s).points:
            M = likelihood_matrix(steiner, s, point.x)
            assert rank_defect(M, 1e-8) >= 1
            sigma = np.linalg.svd(M, compute_uv=False)
            assert sigma[-1] / sigma[0] <= 1e-7

    def test_zero_matrix_lacks_every_row(self):
        assert rank_defect(np.zeros((3, 4)), 1e-8) == 3

    def test_tol_validation(self, steiner, rng):
        M = likelihood_matrix(steiner, rng.uniform(0.1, 1, 4), rng.normal(size=3))
        for tol in (0.0, -1.0, 1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                rank_defect(M, tol)


class TestSolveRegion:
    def test_ascends_from_witness(self, steiner, rng):
        s = rng.uniform(0.1, 1.0, size=4)
        for region in enumerate_regions(steiner.arr):
            (point,) = solve_all(steiner, s, regions=[region]).points
            witness = to_floats(region.witness, "witness")
            (start_value,) = Likelihood(steiner.A_float, s)((steiner.A_float @ witness)[None, :])
            assert point.logL >= start_value
            assert point.grad_norm <= 1e-10
            assert point.hessian_max_eig <= 1e-8

    def test_epsilon_data_approaches_degenerate_limits(self, steiner):
        limits = {
            "++++": (1, 0, 0, 1),
            "++-+": (2, 0, -1, 1),
            "++--": (1, 0, -1, 0),
            "+-++": (2, -1, 0, 1),
            "+-+-": (1, -1, 0, 0),
            "+--+": (3, -1, -1, 1),
            "+---": (2, -1, -1, 0),
        }
        for eps, tol in ((0.3, 0.15), (0.1, 0.01)):
            s = np.array([1.0, eps**3, eps**4, eps**5])
            result = solve_all(steiner, s)
            assert len(result.points) == 7
            for point in result.points:
                y = point.y / point.y[0]
                target = np.array(limits[str(point.region)], dtype=float)
                target = target / target[0]
                assert np.abs(y - target).max() <= tol

    def test_against_grid_search(self, four_points):
        s = np.array([0.31, 0.23, 0.17, 0.29])
        oracle = grid_search_oracle(four_points, s)
        result = solve_all(four_points, s)
        assert len(result.points) == 4
        for point in result.points:
            key = tuple(point.region.signs)
            _, x_grid = oracle[key]
            assert np.abs(canonical(point.x) - canonical(x_grid)).max() <= 1e-4

    def test_start_point_independence(self, steiner, pyrng, rng):
        s = rng.uniform(0.1, 1.0, size=4)
        for region in enumerate_regions(steiner.arr)[:3]:
            (base,) = solve_all(steiner, s, regions=[region]).points
            samples = interior_samples(steiner.arr, region, 5, pyrng)
            (others,) = _solve_batch(steiner, [s], [region] * len(samples), 1e-10, [samples])
            for other in others:
                assert np.abs(canonical(other.x) - canonical(base.x)).max() <= 1e-8

    def test_boundary_data_rejected(self, steiner):
        region = enumerate_regions(steiner.arr)[0]
        with pytest.raises(BoundaryData):
            solve_all(steiner, (1.0, 0.0, 0.5, 0.5), regions=[region])

    def test_underflowing_data_named(self, steiner):
        # Every given entry is positive, so the zero is the double's, not the data's.
        with pytest.raises(ValidationError, match="data entry 3 underflows to 0 in double precision") as err:
            solve_all(steiner, (1, 2, Fraction(1, 10**400), 4))
        assert type(err.value) is ValidationError
        with pytest.raises(BoundaryData):
            solve_all(steiner, (0, 2, Fraction(1, 10**400), 4))


class TestSolveAll:
    def test_steiner_twenty_random(self, steiner, rng):
        for _ in range(20):
            s = rng.uniform(0.05, 1.0, size=4)
            result = solve_all(steiner, s)
            assert len(result.points) == 7 and not result.failures
            assert all(p.p.min() > 1e-12 for p in result.points)
            assert all(p.grad_norm <= 1e-8 for p in result.points)
            best = max(result.points, key=lambda p: p.logL)
            assert result.mle.logL == best.logL

    def test_braid(self, braid4, rng):
        s = rng.uniform(0.1, 1.0, size=6)
        result = solve_all(braid4, s)
        assert len(result.points) == 12 and not result.failures

    def test_no_duplicate_points(self, steiner, rng):
        s = rng.uniform(0.1, 1.0, size=4)
        points = solve_all(steiner, s).points
        for a, b in itertools.combinations(points, 2):
            assert np.abs(canonical(a.x) - canonical(b.x)).max() > 1e-6

    def test_gradients_at_solutions(self, steiner, rng):
        s = rng.uniform(0.1, 1.0, size=4)
        points = solve_all(steiner, s).points
        X = np.array([point.x for point in points])
        G = Likelihood(steiner.A_float, s).hessian(X @ steiner.A_float.T)[1]
        for point, g, p in zip(points, G, float_probabilities(steiner, X)):
            assert np.linalg.norm(g) <= 1e-8
            assert np.allclose(point.p, p, atol=1e-14)

    def test_region_order_is_canonical(self, steiner, rng):
        s = rng.uniform(0.1, 1.0, size=4)
        tags = [str(p.region) for p in solve_all(steiner, s).points]
        assert tags == sorted(tags)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_tolerance_must_be_finite_and_nonnegative(self, steiner, tol):
        with pytest.raises(ValidationError, match="tol"):
            solve_all(steiner, [0.4, 0.3, 0.2, 0.1], tol=tol)

    def test_impossible_tolerance_aggregates(self, steiner, rng):
        # tol = 0 is unreachable: the Newton decrement never falls strictly
        # below zero, so no region converges, and the NoConvergence raised
        # carries every region's failure with its trace.
        for s in ([4, 3, 2, 1], [1, 50, 7, 20], rng.uniform(0.1, 1.0, size=4)):
            with pytest.raises(NoConvergence, match="no region converged") as err:
                solve_all(steiner, s, tol=0.0)
            assert len(err.value.failures) == 7
            assert all(failure.trace for _, failure in err.value.failures)

    def test_tiny_tolerance_accepts_a_zero_decrement(self, steiner):
        # At tol = 1e-200, tol**2 underflows to 0; the decrement is compared
        # unsquared, so the row whose decrement reaches exactly 0 converges.
        s = [4, 3, 2, 1]
        region = enumerate_regions(steiner.arr)[0]
        with pytest.raises(NoConvergence) as err:
            solve_all(steiner, s, tol=0.0, regions=[region])
        ((_, failure),) = err.value.failures
        last_iteration, last_decrement = failure.trace[-1]
        assert last_decrement == 0.0
        (point,) = solve_all(steiner, s, tol=1e-200, regions=[region]).points
        assert point.iterations == last_iteration
        assert point.hessian_max_eig < 0.0

    def test_iteration_cap_bounds_the_passes(self, braid4, monkeypatch):
        # With MAX_ITER passes, a point found in pass k has k iterations, so
        # every point is below the cap and is the uncapped batch's point; a
        # row still running when the passes run out stalls, one trace entry
        # per pass.
        s, regions = [1, 2, 3, 4, 5, 6], enumerate_regions(braid4.arr)
        (uncapped,) = _solve_batch(braid4, [s], regions, 1e-2)
        monkeypatch.setattr(mle, "MAX_ITER", 3)
        (outcomes,) = _solve_batch(braid4, [s], regions, 1e-2)
        points = [(k, out) for k, out in enumerate(outcomes) if type(out) is CriticalPoint]
        failures = [out for out in outcomes if type(out) is not CriticalPoint]
        assert points and failures
        for k, point in points:
            assert point.iterations < 3
            assert point.iterations == uncapped[k].iterations and point.x.tobytes() == uncapped[k].x.tobytes()
        assert all("not below tolerance" in str(failure) and len(failure.trace) == 3 for failure in failures)

    def test_first_of_equal_logL_is_the_mle(self, steiner):
        regions = enumerate_regions(steiner.arr)[:3]
        x = np.zeros(steiner.d)
        a, b = (CriticalPoint(r.sign, x, x, x, -1.5, 0.0, 1, -1.0) for r in regions[1:])
        failure = NoConvergence("stalled", [])
        result = SolveAllResult.of(regions, [failure, a, b])
        assert result.points == [a, b] and result.failures == [(regions[0], failure)]
        assert result.mle_index == 0 and result.mle is a

    def test_numeric_error_in_one_region_is_recorded(self, steiner, rng):
        # Region 2 gets the witness of region 3, which has the wrong signs
        # for it, so that region alone fails while the others solve.
        s = rng.uniform(0.1, 1.0, size=4)
        regions = enumerate_regions(steiner.arr)
        bad = Region(sign=regions[2].sign, ray=regions[3].ray)
        regions[2] = bad
        result = solve_all(steiner, s, regions=regions)
        assert [region for region, _ in result.failures] == [bad]
        assert isinstance(result.failures[0][1], NumericError)
        assert "start point" in str(result.failures[0][1])
        assert [p.region for p in result.points] == [r.sign for r in regions if r != bad]
        assert all(p.grad_norm <= 1e-8 for p in result.points)

    @pytest.mark.parametrize(
        "s", [[np.nan, 1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0], [1e308, 1e308, 2.0, 3.0]]
    )
    def test_non_finite_data_rejected(self, steiner, s):
        # NaN compares false with everything, and an overflowing sum made
        # the witnesses pass for critical points with a NaN gradient norm.
        with pytest.raises(ValidationError, match="finite"):
            solve_all(steiner, s)

    def test_data_of_wrong_length_rejected(self, steiner):
        with pytest.raises(ValidationError, match="n = 4"):
            solve_all(steiner, [0.5, 0.3, 0.2])
        with pytest.raises(ValidationError, match="n = 4"):
            solve_all(steiner, [[0.4, 0.3, 0.2, 0.1]])

    @pytest.mark.parametrize(
        "start, match",
        [
            ((Fraction(10**400), 1, 1), "field 'start' holds a value beyond double range"),
            ((1, 1), r"field 'start' needs 3 entries, got shape \(2,\)"),
            ([[1, 2, 3]], r"field 'start' needs 3 entries, got shape \(1, 3\)"),
            ([[1, 2], [3]], "field 'start' is not a rectangular array of numbers"),
        ],
        ids=["beyond-double-range", "too-short", "matrix", "ragged"],
    )
    def test_start_is_checked(self, steiner, start, match):
        # numpy alone raised OverflowError and ValueError, and took a 1 x 3
        # matrix for a start.
        region = enumerate_regions(steiner.arr)[0]
        with pytest.raises(ValidationError, match=match):
            _solve_batch(steiner, [[4, 3, 2, 1]], [region], 1e-10, [[start]])

    def test_one_start_per_region(self, steiner):
        regions = enumerate_regions(steiner.arr)[:2]
        with pytest.raises(ValidationError, match="field 'start' needs 2 points, got 1"):
            _solve_batch(steiner, [[4, 3, 2, 1]], regions, 1e-10, [[regions[0].witness]])

    @pytest.mark.parametrize(
        "x, inside, outside",
        [
            ((1.0, 0.0, 0.0), UNDERFLOW, UNDERFLOW),
            ((3.0, 2.0, 1.0), None, "converged point left its region"),
            ((1.0, 1e-170, 1e-170), "Hessian at convergence has no finite eigenvalues", "converged point left its region"),
        ],
        ids=["underflow", "left", "no-finite-eigenvalues"],
    )
    def test_finish_rejects_a_point_off_its_region(self, steiner, monkeypatch, x, inside, outside):
        # Every row's normalized finish is replaced by x: (1, 0, 0) lies on two
        # Steiner hyperplanes; (3, 2, 1) lies in region ++++ alone, where the
        # chart Hessian is negative definite, and so does (1, 1e-170, 1e-170),
        # where l_i^2 underflows to 0 and the Hessian holds an infinity. Each
        # failure, an underflow too, carries the trace of its row's passes,
        # which ends below tol as the row was found.
        from sqlinear import mle

        monkeypatch.setattr(mle, "normalize_parameter", lambda X: np.tile(normalize_parameter(x), (len(X), 1)))
        regions = enumerate_regions(steiner.arr)
        (outcomes,) = mle._solve_batch(steiner, [[4, 3, 2, 1]], regions, 1e-10)
        expected = [inside if str(r.sign) == "++++" else outside for r in regions]
        assert [str(out) if isinstance(out, NoConvergence) else None for out in outcomes] == expected
        for trace in (out.trace for out in outcomes if isinstance(out, NoConvergence)):
            assert trace and [k for k, _ in trace] == list(range(len(trace))) and trace[-1][1] < 1e-10


def test_normalize_parameter_of_a_stack_is_each_row_alone(rng):
    """A stack normalizes row by row, bit for bit as the one-vector rule:
    divide by np.linalg.norm, then flip unless the first coordinate above
    1e-12 in size is positive."""
    X = rng.normal(size=(200, 4))
    X[:50] *= np.where(rng.random((50, 4)) < 0.4, 0.0, 1.0)
    X[0] = (0.0, 1e-13, -2.0, 1.0)
    X = X[np.any(X != 0.0, axis=1)]
    stacked = normalize_parameter(X)
    for x, row in zip(X, stacked):
        unit = x / float(np.linalg.norm(x))
        lead = next(v for v in unit if abs(v) > 1e-12)
        assert row.tobytes() == (-unit if lead < 0 else unit).tobytes() == normalize_parameter(x).tobytes()
    assert stacked[0][2] > 0.0
    with pytest.raises(ZeroPoint):
        normalize_parameter(np.vstack([X[:3], np.zeros(4)]))


@pytest.mark.parametrize(
    "call",
    [
        lambda model, x: likelihood_matrix(model, [4, 3, 2, 1], x),
        lambda model, x: normalize_parameter(x),
    ],
    ids=["likelihood_matrix", "normalize_parameter"],
)
def test_exact_parameter_beyond_double_range_is_invalid(steiner, call):
    # to_floats rejects it, as it does for the data; numpy alone raises OverflowError.
    with pytest.raises(ValidationError, match="field 'x' holds a value beyond double range"):
        call(steiner, (10**400, 1, 1))


def test_fractions_become_their_correctly_rounded_doubles():
    """to_floats turns a Fraction into the integer quotient n / d, bit for
    bit the double that numpy's float() conversion gives: ties, huge
    terms, subnormals, underflow, and entries that are no Fraction."""
    rng = random.Random(30)
    edge = [Fraction(1, 3), Fraction(2**53 + 1), Fraction(-(2**54) - 2, 2), Fraction(17 * 10**307, 10)]
    edge += [Fraction(1, 10**310), Fraction(-1, 10**400), Fraction(10**500 + 1, 10**500), 3, -0.5]
    rows = [[Fraction(rng.randint(-(10**k), 10**k), rng.randint(1, 10 ** (300 - k))) for k in range(1, 300, 37)] for _ in range(20)]
    for values in (edge, rows, tuple(map(tuple, rows))):
        assert to_floats(values, "v").tobytes() == np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda model: likelihood_matrix(model, [1, 2, 3], (1, 2, 3)), ValidationError, "field 's' needs 4 entries"),
        (lambda model: likelihood_matrix(model, [4, 3, 2, 1], [1, 2]), ValidationError, "field 'x' needs 3 entries"),
        (lambda model: likelihood_matrix(model, [4, 3, 2, 1], [[1, 2, 3]]), ValidationError, "field 'x' needs 3 entries"),
        (lambda model: likelihood_matrix(model, [4, 3, 2, 1], (0, 0, 0)), ZeroPoint, "projective point"),
        (lambda model: likelihood_matrix(model, [4, 3, "x", 1], (1, 2, 3)), ValidationError, "field 's' is not a rectangular array"),
        (lambda model: normalize_parameter([[1, 2], [3]]), ValidationError, "field 'x' is not a rectangular array"),
        (lambda model: solve_all(model, [1, 2, "x", 4]), ValidationError, "field 's' is not a rectangular array"),
        (lambda model: solve_all(model, [1, 2, {}, 4]), ValidationError, "field 's' is not a rectangular array"),
        (lambda model: solve_all(model, [1, 2, 3, 1 + 1j]), ValidationError, "field 's' is not a rectangular array"),
    ],
    ids=["likelihood_matrix-s", "likelihood_matrix-x", "likelihood_matrix-x-matrix", "likelihood_matrix-zero",
         "likelihood_matrix-s-string", "normalize_parameter-x-ragged",
         "solve_all-s-string", "solve_all-s-dict", "solve_all-s-complex"],
)
def test_float_entry_points_check_their_input(steiner, call, error, match):
    # numpy alone raises ValueError or TypeError, or returns a matrix at x = 0.
    with pytest.raises(error, match=match):
        call(steiner)


class TestPaperInvariants:
    """On random generic arrangements: one critical point per region, each a
    strict local maximum on which the likelihood matrix drops rank."""

    @pytest.mark.parametrize("d, n, count", [(3, 6, 5), (4, 7, 4)])
    def test_random_generic_arrangements(self, d, n, count):
        pyrng = random.Random(f"invariants/{d}x{n}")
        rng = np.random.default_rng(d * 10 + n)
        for _ in range(count):
            model = make_model(random_arrangement(d, n, pyrng))
            s = rng.uniform(0.05, 1.0, size=n)
            result = solve_all(model, s)
            chi = characteristic_polynomial(model.arr)
            assert len(result.points) + len(result.failures) == ml_degree(model.arr) == abs(chi(-1)) // 2
            for point in result.points:
                assert point.hessian_max_eig < 0
                assert rank_defect(likelihood_matrix(model, s, point.x), 1e-8) >= 1

    @pytest.mark.parametrize("d, n", [(4, 9), (5, 12)])
    def test_integer_data_finds_every_region(self, d, n):
        # Integer data puts sum(s) in the hundreds, where an absolute
        # gradient test lost regions whose iterates had converged.
        model = make_model(random_arrangement(d, n, random.Random(7)))
        regions = enumerate_regions(model.arr)
        chi = characteristic_polynomial(model.arr)
        rng = np.random.default_rng(0)
        for _ in range(3):
            result = solve_all(model, rng.integers(1, 51, n), regions=regions)
            assert not result.failures
            assert len(result.points) == abs(chi(-1)) // 2

    def test_scaled_data_gives_the_same_points(self):
        # logL(c s) = c logL(s): scaling the data must change neither the
        # points nor the path taken to them.
        model = make_model(random_arrangement(4, 9, random.Random(7)))
        regions = enumerate_regions(model.arr)
        s = np.random.default_rng(0).integers(1, 51, 9).astype(float)
        base = solve_all(model, s, regions=regions)
        assert not base.failures
        for scale in (1e3, 1e6):
            result = solve_all(model, scale * s, regions=regions)
            assert not result.failures
            assert [p.region for p in result.points] == [p.region for p in base.points]
            assert [p.iterations for p in result.points] == [p.iterations for p in base.points]
            assert all(np.abs(p.x - q.x).max() <= 1e-12 for p, q in zip(result.points, base.points))
