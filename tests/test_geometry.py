import random
from fractions import Fraction

import pytest

from sqlinear import ratlin
from sqlinear.arrangement import Arrangement, enumerate_regions, ml_degree
from sqlinear.catalog import random_arrangement
from sqlinear.errors import NoConvergence, ValidationError, ZeroCoordinate
from sqlinear.geometry import (
    REFINE_TOL,
    chamber_arrangement,
    chamber_forms,
    combinatorial_type_scan,
    dual_polytope,
    log_voronoi_scan,
    lognormal_polytope,
    swap_candidates,
    _data_rows,
    _in_row_span,
)
from sqlinear.mle import CriticalPoint, SolveAllResult, _solve_batch, solve_all, to_floats
from sqlinear.model import make_model

from conftest import sample_kernel_point, sample_wall_point
from polytope_oracle import facet_vertices, is_simple, signature

QUAD_Y = (3, 2, 1, -1)


def scan_oracle(model, start, end, steps, tol=1e-10):
    """The Voronoi scan one parameter at a time: a cold solve_all at every
    sample and every bisection midpoint, and the argmax of logL as the tag."""
    a, b = to_floats(start, "start"), to_floats(end, "end")
    regions = enumerate_regions(model.arr)

    def tag_at(t):
        return str(solve_all(model, a + t * (b - a), tol, regions=regions).mle.region)

    params = [k / steps for k in range(steps + 1)]
    tags = [tag_at(t) for t in params]
    crossings = []
    for k in range(steps):
        if tags[k] != tags[k + 1]:
            lo, hi = params[k], params[k + 1]
            while hi - lo > REFINE_TOL:
                mid = (lo + hi) / 2
                if tag_at(mid) == tags[k]:
                    lo = mid
                else:
                    hi = mid
            crossings.append(((lo + hi) / 2, tags[k], tags[k + 1]))
    return tuple(tags), tuple(crossings)


def bisection_oracle(model, start, end, steps, tol=1e-10):
    """The Voronoi scan as it refined one level per batch: every sample in
    one batch, then one batch per bisection level with the midpoint of each
    open bracket, started from the outcomes at the bracket's lo."""
    a, b = to_floats(start, "start"), to_floats(end, "end")
    regions = enumerate_regions(model.arr)

    def solve(params, starts=None):
        return _solve_batch(model, [a + t * (b - a) for t in params], regions, tol, starts)

    def tag(row):
        return str(SolveAllResult.of(regions, row).mle.region)

    params = [k / steps for k in range(steps + 1)]
    rows = solve(params)
    tags = [tag(row) for row in rows]
    brackets = [[params[k], params[k + 1], rows[k], tags[k], tags[k + 1]] for k in range(steps) if tags[k] != tags[k + 1]]
    while active := [br for br in brackets if br[1] - br[0] > REFINE_TOL]:
        mids = [(br[0] + br[1]) / 2 for br in active]
        starts = [[p.x if isinstance(p, CriticalPoint) else None for p in br[2]] for br in active]
        for br, mid, row in zip(active, mids, solve(mids, starts)):
            if tag(row) == br[3]:
                br[0], br[2] = mid, row
            else:
                br[1] = mid
    return tuple(tags), tuple(((lo + hi) / 2, before, after) for lo, hi, _, before, after in brackets)


def hex_crossings(crossings):
    return [(t.hex(), before, after) for t, before, after in crossings]


def chord(model, pyrng, index, fraction):
    """A kernel point y and the chord of its log-normal polytope through s*
    along a row of B diag(y), ``fraction`` of the way to the boundary on
    either side."""
    y = sample_kernel_point(model, pyrng)
    total = sum(v * v for v in y)
    s_star = tuple(v * v / total for v in y)
    row = [b * v for b, v in zip(model.B.B[index % len(model.B.B)], y)]
    ends = []
    for sign in (-1, 1):
        t_max = min(s / (-sign * r) for s, r in zip(s_star, row) if sign * r < 0)
        ends.append(tuple(s + fraction * t_max * sign * r for s, r in zip(s_star, row)))
    return y, *ends


def session_segment(model, pyrng, index, fraction):
    """From s* of a kernel point toward the boundary along a row of
    B diag(y), ``fraction`` of the way."""
    y = sample_kernel_point(model, pyrng)
    total = sum(v * v for v in y)
    start = tuple(v * v / total for v in y)
    row = [b * v for b, v in zip(model.B.B[index % len(model.B.B)], y)]
    t_max = min(s / -r for s, r in zip(start, row) if r < 0)
    return y, start, tuple(s + fraction * t_max * r for s, r in zip(start, row))


class TestLognormalPolytope:
    def test_example_65_quadrilateral(self, four_points):
        poly = lognormal_polytope(four_points, QUAD_Y)
        assert poly.dim == 2
        assert len(poly.V_rep) == 4
        assert poly.f_vector == (4, 4)
        expected = {
            (Fraction(0), Fraction(0), Fraction(2, 5), Fraction(3, 5)),
            (Fraction(0), Fraction(4, 5), Fraction(0), Fraction(1, 5)),
            (Fraction(3, 5), Fraction(2, 5), Fraction(0), Fraction(0)),
            (Fraction(9, 10), Fraction(0), Fraction(1, 10), Fraction(0)),
        }
        assert set(poly.V_rep) == expected

    def test_example_65_hull_equation(self, four_points):
        # The affine hull inside the simplex: within {sum s = 1} the polygon
        # spans {u . s = 0} for u = (2, -3, -18, 12), the rank-condition
        # normal. This equals the often-quoted vector (1, -1, -3, -2) divided
        # coordinatewise by y, not that vector itself.
        poly = lognormal_polytope(four_points, QUAD_Y)
        u = (2, -3, -18, 12)
        for vertex in poly.V_rep:
            assert ratlin.dot(u, vertex) == 0
        quoted = (1, -1, -3, -2)
        scaled = tuple(Fraction(c, y) for c, y in zip(quoted, QUAD_Y))
        assert ratlin.primitive(scaled) == u
        assert any(ratlin.dot(quoted, v) != 0 for v in poly.V_rep)

    def test_contains_model_point(self, four_points):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        y = tuple(map(Fraction, QUAD_Y))
        assert _in_row_span(four_points, y, s_star)
        assert all(v > 0 for v in s_star)

    def test_data_rows_are_independent(self, pyrng):
        # _in_row_span compares one rank with the row count, so [y^2; B diag(y)]
        # has full row rank at every kernel point with no zero coordinate.
        for model in (make_model(random_arrangement(3, 6, pyrng)), make_model(random_arrangement(2, 5, pyrng))):
            for _ in range(5):
                y = sample_kernel_point(model, pyrng, avoid_chamber=False)
                rows = _data_rows(model, y)
                assert ratlin.rank(rows) == len(rows) == model.n - model.d + 1
                inside = tuple(a + 2 * b for a, b in zip(rows[0], rows[-1]))
                outside = tuple(pyrng.randint(1, 9) for _ in range(model.n))
                assert _in_row_span(model, y, inside) and not _in_row_span(model, y, outside)

    def test_circle_segment(self, circle):
        poly = lognormal_polytope(circle, (1, 2, 3))
        assert poly.dim == 1
        assert len(poly.V_rep) == 2
        assert poly.f_vector == (2,)

    def test_six_points_types(self, six_points):
        seen = set()
        for x in ((69, 30), (71, 30), (1, 0), (1, -10), (11, -2)):
            y = six_points.arr.form_values((Fraction(x[0]), Fraction(x[1])))
            poly = lognormal_polytope(six_points, y)
            assert poly.dim == 4
            seen.add(len(poly.V_rep))
        assert seen <= {9, 8, 5}
        assert len(seen) >= 2

    def test_zero_coordinate_rejected(self, four_points):
        with pytest.raises(ZeroCoordinate):
            lognormal_polytope(four_points, (0, 1, 2, 1))

    def test_not_in_kernel_rejected(self, four_points):
        with pytest.raises(ValidationError):
            lognormal_polytope(four_points, (1, 1, 1, 1))

    def test_float_input_projected(self, four_points):
        exact = lognormal_polytope(four_points, QUAD_Y)
        jitter = [float(v) + 1e-13 for v in QUAD_Y]
        as_float = lognormal_polytope(four_points, jitter)
        assert signature(as_float) == signature(exact)

    def test_dimension_generic(self, pyrng):
        model = make_model(random_arrangement(3, 6, pyrng))
        y = sample_kernel_point(model, pyrng)
        poly = lognormal_polytope(model, y)
        assert poly.dim == model.n - model.d


class TestDualPolytope:
    def test_example_65(self, four_points):
        q = dual_polytope(four_points, QUAD_Y)
        assert q.dim == 2
        assert len(q.V_rep) == 4
        assert q.f_vector == (4, 4)

    def test_circle(self, circle):
        q = dual_polytope(circle, (1, 2, 3))
        assert q.dim == 1 and q.f_vector == (2,)

    def test_duality_random(self, pyrng):
        checked = 0
        while checked < 10:
            d = pyrng.choice([2, 3])
            n = pyrng.randint(d + 2, 8)
            try:
                model = make_model(random_arrangement(d, n, pyrng, lo=-5, hi=5))
                y = sample_kernel_point(model, pyrng)
            except AssertionError:
                continue
            pi = lognormal_polytope(model, y)
            q = dual_polytope(model, y)
            assert pi.f_vector == tuple(reversed(q.f_vector))
            assert is_simple(pi)
            # the model's own distribution is always a valid data point
            total = sum(v * v for v in y)
            s_star = tuple(v * v / total for v in y)
            assert _in_row_span(model, y, s_star)
            assert pi.dim == model.n - model.d
            checked += 1
        # On a chamber wall the dual Q may stop being simplicial. Keep the
        # walls where it does: there the polytope is not simple, and the
        # reversed f-vector duality must still hold.
        checked = 0
        while checked < 5:
            d = pyrng.choice([2, 3])
            n = pyrng.randint(d + 3, 8)
            try:
                model = make_model(random_arrangement(d, n, pyrng, lo=-5, hi=5))
                y = sample_wall_point(model, pyrng)
            except AssertionError:
                continue
            pi = lognormal_polytope(model, y)
            q = dual_polytope(model, y)
            if all(len(facet) == q.dim for facet in facet_vertices(q)):
                continue
            assert pi.f_vector == tuple(reversed(q.f_vector))
            assert is_simple(pi) is False
            checked += 1


class TestChamberArrangement:
    def test_six_points_example(self, six_points):
        from math import comb

        chamber = chamber_arrangement(six_points)
        assert chamber.arrangement.n == 12
        assert len(chamber_forms(six_points)) == comb(6, 1)  # C(n, n-d+1) walls before dedup
        prims = {ratlin.primitive(row) for row in chamber.arrangement.A}
        assert (3, -7) in prims
        assert chamber.duplicates == ()

    def test_steiner_count(self, steiner):
        chamber = chamber_arrangement(steiner)
        assert chamber.arrangement.n == 4 + 6

    def test_braid_duplicates_reported(self, braid4):
        chamber = chamber_arrangement(braid4)
        dropped = sum(len(group) for _, group in chamber.duplicates)
        assert chamber.arrangement.n == 6 + 15 - dropped
        prims = {ratlin.primitive(row) for row in chamber.arrangement.A}
        assert len(prims) == chamber.arrangement.n

    def test_parallel_input_rows_deduplicated(self):
        # Input rows parallel to an earlier one are dropped like the walls
        # that repeat a form, each under the first label of its form.
        chamber = chamber_arrangement(make_model(Arrangement(A=((1, 0), (2, 0), (0, 1)))))
        assert chamber.arrangement == Arrangement(A=((1, 0), (0, 1)), labels=("l1", "l3"))
        assert chamber.duplicates == (("l1", ("l2", "ch{1,2}")), ("l3", ("ch{1,3}", "ch{2,3}")))


class TestCombinatorialTypeScan:
    def test_six_points_wall(self, six_points):
        report = combinatorial_type_scan(six_points)
        y69 = six_points.arr.form_values((Fraction(69), Fraction(30)))
        y71 = six_points.arr.form_values((Fraction(71), Fraction(30)))
        sig69 = signature(lognormal_polytope(six_points, y69))
        sig71 = signature(lognormal_polytope(six_points, y71))
        assert sig69 != sig71
        assert sig69 in report.values() and sig71 in report.values()

    def test_one_signature_per_chamber_region(self, seven_lines):
        # The scan visits every region of the chamber arrangement once.
        report = combinatorial_type_scan(seven_lines)
        assert len(report) == ml_degree(chamber_arrangement(seven_lines).arrangement) == 300

    def test_parallel_input_rows_scan_the_deduplicated_chamber(self):
        # The chamber arrangement once kept both parallel rows, and its
        # enumeration raised ParallelRows.
        report = combinatorial_type_scan(make_model(Arrangement(A=((1, 0), (2, 0), (0, 1)))))
        assert report == {"++": ((2,), (1, 1)), "+-": ((2,), (1, 1))}

    def test_steiner_scan_completes(self, steiner):
        report = combinatorial_type_scan(steiner)
        assert len(report) > 0


class TestSwapCandidates:
    def test_example_65(self, four_points):
        candidates = swap_candidates(four_points, QUAD_Y)
        as_tuples = {
            (c.i + 1, c.j + 1, c.sigma, tuple(int(v) for v in c.image))
            for c in candidates
        }
        assert (1, 3, (1, 1, 1, -1), (1, 2, 3, 1)) in as_tuples
        assert (2, 4, (1, -1, -1, -1), (3, 1, -1, -2)) in as_tuples

    def test_kernel_membership_and_sign_change(self, four_points):
        from sqlinear.arrangement import SignVector

        base = SignVector.from_values(QUAD_Y)
        for cand in swap_candidates(four_points, QUAD_Y):
            assert ratlin.is_zero(ratlin.matvec(four_points.B.B, cand.image))
            assert SignVector.from_values(cand.image).signs != base.signs

    def test_generic_empty(self, pyrng):
        model = make_model(random_arrangement(3, 6, pyrng))
        y = sample_kernel_point(model, pyrng, avoid_chamber=False)
        assert swap_candidates(model, y) == []


class TestLogVoronoiScan:
    def test_example_65_crossing_s1_s3(self, four_points):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        va = (Fraction(0), Fraction(0), Fraction(2, 5), Fraction(3, 5))
        vb = (Fraction(0), Fraction(4, 5), Fraction(0), Fraction(1, 5))
        target = tuple(
            Fraction(2, 5) * a + Fraction(3, 5) * b for a, b in zip(va, vb)
        )
        end = tuple(s + Fraction(9, 10) * (t - s) for s, t in zip(s_star, target))
        steps = 12
        profile = log_voronoi_scan(four_points, QUAD_Y, s_star, end, steps=steps)
        assert profile.tags[0] == "+++-"
        assert len(profile.crossings) == 1
        t_cross, before, after = profile.crossings[0]
        assert before == "+++-" and after == "++++"
        exact = Fraction(100, 117)  # where s1(t) = s3(t)
        assert abs(t_cross - float(exact)) <= 1.0 / steps
        assert abs(t_cross - float(exact)) <= 1e-3

    def test_circle_weyl_wall(self, circle):
        y = (1, 2, 3)
        s_star = tuple(Fraction(v * v, 14) for v in y)
        direction = (Fraction(1), Fraction(2), Fraction(-3))
        start = tuple(a - Fraction(1, 50) * b for a, b in zip(s_star, direction))
        end = tuple(a + Fraction(3, 25) * b for a, b in zip(s_star, direction))
        profile = log_voronoi_scan(circle, y, start, end, steps=10)
        assert len(profile.crossings) == 1
        t_cross, before, after = profile.crossings[0]
        assert (before, after) == ("+++", "+--")
        assert abs(t_cross - float(Fraction(32, 49))) <= 0.1

    def test_constant_inside_one_cell(self, four_points):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        nearby = tuple(
            s + Fraction(1, 100) * (v - s)
            for s, v in zip(s_star, (Fraction(3, 5), Fraction(2, 5), 0, 0))
        )
        profile = log_voronoi_scan(four_points, QUAD_Y, s_star, nearby, steps=6)
        assert profile.crossings == ()
        assert set(profile.tags) == {"+++-"}

    def assert_matches_oracle(self, model, y, start, end, steps):
        profile = log_voronoi_scan(model, y, start, end, steps=steps)
        assert (profile.tags, profile.crossings) == scan_oracle(model, start, end, steps)
        return profile

    @pytest.mark.parametrize("steps", [8, 12])
    def test_example_65_matches_per_parameter_oracle(self, four_points, steps):
        start = (Fraction(3, 5), Fraction(4, 15), Fraction(1, 15), Fraction(1, 15))
        end = (Fraction(3, 50), Fraction(2, 75), Fraction(11, 30), Fraction(41, 75))
        profile = self.assert_matches_oracle(four_points, QUAD_Y, start, end, steps)
        assert profile.crossings

    @pytest.mark.parametrize("fraction", [Fraction(1, 4), Fraction(3, 4)])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_segments_match_per_parameter_oracle(self, seed, fraction):
        pyrng = random.Random(f"voronoi-diff/{seed}")
        model = make_model(random_arrangement(3, 6, pyrng))
        y, start, end = session_segment(model, pyrng, seed, fraction)
        self.assert_matches_oracle(model, y, start, end, 12)

    def test_two_brackets_bisected_together_match_oracle(self):
        pyrng = random.Random("voronoi-diff/15")
        model = make_model(random_arrangement(3, 6, pyrng))
        y, start, end = session_segment(model, pyrng, 15, Fraction(19, 20))
        profile = self.assert_matches_oracle(model, y, start, end, 12)
        assert len(profile.crossings) == 2

    @pytest.mark.parametrize("steps", [1, 3, 8, 12, 20])
    @pytest.mark.parametrize("d, n", [(2, 5), (3, 6), (3, 7)])
    def test_rounds_match_one_level_per_batch(self, d, n, steps):
        """Rounds of several bisection levels give the tags and, bit for
        bit, the crossings of one bisection level per batch."""
        switches = []
        for seed in range(5):
            pyrng = random.Random(f"voronoi-rounds/{d}x{n}/{seed}")
            model = make_model(random_arrangement(d, n, pyrng))
            y, start, end = chord(model, pyrng, seed, Fraction(19, 20))
            profile = log_voronoi_scan(model, y, start, end, steps=steps)
            tags, crossings = bisection_oracle(model, start, end, steps)
            assert profile.tags == tags
            assert hex_crossings(profile.crossings) == hex_crossings(crossings)
            switches.append(len(crossings))
        # Every shape has a switch; past one step, the (3, 6) chords cross two walls.
        assert max(switches) == (2 if (d, n) == (3, 6) and steps > 1 else 1)

    def spy_batches(self, monkeypatch):
        """The row count (data vectors times regions) of each batch solved."""
        from sqlinear import mle

        sizes, solve = [], mle._solve_batch

        def spy(model, data, regions, tol, starts=None):
            sizes.append(len(data) * len(regions))
            return solve(model, data, regions, tol, starts)

        monkeypatch.setattr(mle, "_solve_batch", spy)
        return sizes

    def test_four_points_refines_in_four_rounds(self, four_points, monkeypatch):
        # From s* toward the edge between two vertices: one switch, whose
        # bracket of width 1/12 needs 10 levels, solved as 3 + 3 + 3 + 1.
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        va = (Fraction(0), Fraction(0), Fraction(2, 5), Fraction(3, 5))
        vb = (Fraction(0), Fraction(4, 5), Fraction(0), Fraction(1, 5))
        end = tuple(s + Fraction(9, 10) * (Fraction(2, 5) * a + Fraction(3, 5) * b - s) for s, a, b in zip(s_star, va, vb))
        sizes = self.spy_batches(monkeypatch)
        profile = log_voronoi_scan(four_points, QUAD_Y, s_star, end, steps=12)
        R = len(enumerate_regions(four_points.arr))
        assert len(profile.crossings) == 1
        assert sizes == [13 * R, 7 * R, 7 * R, 7 * R, R]

    def test_two_brackets_share_each_round(self, monkeypatch):
        pyrng = random.Random("voronoi-diff/15")
        model = make_model(random_arrangement(3, 6, pyrng))
        y, start, end = session_segment(model, pyrng, 15, Fraction(19, 20))
        sizes = self.spy_batches(monkeypatch)
        profile = log_voronoi_scan(model, y, start, end, steps=12)
        R = len(enumerate_regions(model.arr))
        assert len(profile.crossings) == 2
        assert sizes == [13 * R] + [2 * 3 * R] * 5

    def test_no_region_converging_raises_with_every_failure(self, four_points):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        with pytest.raises(NoConvergence, match="no region converged") as err:
            log_voronoi_scan(four_points, QUAD_Y, s_star, s_star, steps=3, tol=0.0)
        regions = enumerate_regions(four_points.arr)
        assert [region for region, _ in err.value.failures] == regions
        assert all(isinstance(e, NoConvergence) and e.trace for _, e in err.value.failures)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, four_points, steps):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        with pytest.raises(ValidationError, match="steps"):
            log_voronoi_scan(four_points, QUAD_Y, s_star, s_star, steps=steps)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_solver_tolerance_must_be_finite_and_nonnegative(self, four_points, tol):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        with pytest.raises(ValidationError, match="tol must be finite and nonnegative"):
            log_voronoi_scan(four_points, QUAD_Y, s_star, s_star, steps=2, tol=tol)

    def test_segment_validation(self, four_points):
        with pytest.raises(ValidationError):
            log_voronoi_scan(
                four_points,
                QUAD_Y,
                (Fraction(1, 4),) * 4,  # not in the row span
                (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)),
                steps=4,
            )

    @pytest.mark.parametrize("which", ["start", "end"])
    def test_endpoint_of_wrong_length_rejected(self, four_points, which):
        total = sum(v * v for v in QUAD_Y)
        s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
        points = {"start": s_star, "end": s_star, which: (1, 2)}
        with pytest.raises(ValidationError, match=f"{which} point must have n = 4 entries"):
            log_voronoi_scan(four_points, QUAD_Y, points["start"], points["end"], steps=2)
