import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import degeneration_oracle
from conftest import CATALOG, limit_gap, non_essential_model
from sqlinear import degeneration, mle
from sqlinear.arrangement import enumerate_regions
from sqlinear.catalog import random_arrangement
from sqlinear.cli import main
from sqlinear.degeneration import (
    TropicalData,
    admissible_supports,
    estimate_valuations,
    tropical_predictions,
    unit_data_solutions,
)
from sqlinear.errors import AnchorNotUnique, PathLost, RankDeficient, ValidationError
from sqlinear.model import make_model

STEINER_POINTS = {
    (1, 0, 0, 1),
    (1, 0, -1, 0),
    (1, -1, 0, 0),
    (2, 0, -1, 1),
    (2, -1, 0, 1),
    (2, -1, -1, 0),
    (3, -1, -1, 1),
}


class TestUnitDataSolutions:
    def test_steiner_reproduces_example_exactly(self, steiner):
        solutions = unit_data_solutions(steiner, 0)
        assert len(solutions) == 7
        assert {tuple(int(v) for v in sol.y) for sol in solutions} == STEINER_POINTS
        assert all(sol.generic_flag for sol in solutions)
        full_support = next(sol for sol in solutions if sol.J == ())
        assert tuple(int(v) for v in full_support.y) == (3, -1, -1, 1)

    def test_supports_are_distinct_iff_generic(self, steiner):
        solutions = unit_data_solutions(steiner, 0)
        supports = [sol.J for sol in solutions]
        assert len(set(supports)) == len(supports)

    def test_kernel_and_support_exact(self, steiner, pyrng):
        from sqlinear import ratlin

        model = make_model(random_arrangement(3, 6, pyrng))
        for anchor in (0, 2):
            for sol in unit_data_solutions(model, anchor):
                assert ratlin.is_zero(ratlin.matvec(model.B.B, sol.y))
                assert all(sol.y[j] == 0 for j in sol.J)
                assert sol.y[anchor] > 0

    def test_count_is_mu_for_generic(self, pyrng):
        model = make_model(random_arrangement(3, 6, pyrng))
        solutions = unit_data_solutions(model, 0)
        assert len(solutions) == 16  # 1 + 5 + 10
        assert all(sol.generic_flag for sol in solutions)

    def test_solutions_satisfy_rank_condition(self, steiner, pyrng):
        # the closed-form points are critical for e_anchor: the likelihood
        # matrix built from (e_anchor, y) must drop rank
        import numpy as np

        model = make_model(random_arrangement(3, 6, pyrng))
        for owner, anchor in ((steiner, 0), (model, 1)):
            s = np.zeros(owner.n)
            s[anchor] = 1.0
            for sol in unit_data_solutions(owner, anchor):
                y = np.array([float(v) for v in sol.y])
                rows = np.vstack([s, y**2, mle.to_floats(owner.B.B, "B") * y])
                sigma = np.linalg.svd(rows, compute_uv=False)
                assert sigma[-1] / sigma[0] <= 1e-12

    def test_four_points_collision_flagged(self, four_points):
        solutions = unit_data_solutions(four_points, 0)
        assert len(solutions) == 4
        flagged = [sol for sol in solutions if not sol.generic_flag]
        assert {sol.J for sol in flagged} == {(2,), ()}
        colliding = {tuple(int(v) for v in sol.y) for sol in flagged}
        assert colliding == {(2, 1, 0, -1)}
        assert not all(sol.generic_flag for sol in solutions)

    def test_other_anchor(self, steiner):
        solutions = unit_data_solutions(steiner, 3)
        assert len(solutions) == 7
        assert all(sol.generic_flag for sol in solutions)

    def test_anchor_out_of_range(self, steiner):
        with pytest.raises(RankDeficient, match=r"^anchor 7 out of range for n = 4$"):
            unit_data_solutions(steiner, 7)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient, match="^degenerate solutions need an essential arrangement$"):
            unit_data_solutions(non_essential_model(), 0)


# Catalog models (braid(5) aside: its 10 anchors of 130 supports each take
# seconds) and three seeded random models of each shape.
ORACLE_CASES = [name for name in CATALOG if name != "braid5"] + [
    f"random{d}x{n}-{k}" for d, n in ((3, 6), (3, 7), (4, 8), (4, 9)) for k in range(3)
]


def oracle_case_model(name):
    if name in CATALOG:
        return make_model(CATALOG[name]())
    shape, k = name[len("random"):].split("-")
    d, n = map(int, shape.split("x"))
    return make_model(random_arrangement(d, n, random.Random(1800 + 10 * d + n + 1000 * int(k))))


class TestUnitDataOracle:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_records_equal_the_oracle_at_every_anchor(self, name):
        model = oracle_case_model(name)
        for anchor in range(model.n):
            assert unit_data_solutions(model, anchor) == degeneration_oracle.unit_data_solutions(model, anchor)

    def test_cases_reach_collisions_and_singular_gram_systems(self, four_points, braid4):
        errors = {sol.error for sol in unit_data_solutions(four_points, 0)}
        assert "support collision" in errors
        errors = [sol.error for anchor in range(braid4.n) for sol in unit_data_solutions(braid4, anchor)]
        assert "singular Gram matrix" in errors


class TestTropicalPredictions:
    def test_steiner_example(self, steiner):
        trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
        points = tropical_predictions(steiner, trop)
        expected = {
            (0, 3, 4, 0),
            (0, 3, 0, 5),
            (0, 0, 4, 5),
            (0, 3, 0, 0),
            (0, 0, 4, 0),
            (0, 0, 0, 5),
            (0, 0, 0, 0),
        }
        assert {tuple(int(v) for v in p.z) for p in points} == expected
        assert len(points) == 7

    def test_shift_invariance(self, steiner):
        base = tropical_predictions(
            steiner, TropicalData(w=(0, 3, 4, 5), anchor=0), check_generic=False
        )
        shifted = tropical_predictions(
            steiner,
            TropicalData(w=(2, 5, 6, 7), anchor=0),
            check_generic=False,
        )
        assert [p.z for p in base] == [p.z for p in shifted]

    def test_uniform_tail(self, circle):
        trop = TropicalData(w=(0, 2, 2), anchor=0)
        points = tropical_predictions(circle, trop, check_generic=False)
        assert {tuple(int(v) for v in p.z) for p in points} == {
            (0, 2, 0),
            (0, 0, 2),
            (0, 0, 0),
        }

    def test_d2_n3(self, circle):
        trop = TropicalData(w=(0, 1, 2), anchor=0)
        points = tropical_predictions(circle, trop, check_generic=False)
        assert {tuple(int(v) for v in p.z) for p in points} == {
            (0, 0, 0),
            (0, 1, 0),
            (0, 0, 2),
        }

    def test_anchor_not_unique(self):
        with pytest.raises(AnchorNotUnique):
            TropicalData(w=(0, 0, 1), anchor=0)
        with pytest.raises(AnchorNotUnique):
            TropicalData(w=(1, 0, 2), anchor=0)

    @pytest.mark.parametrize("w", [(0, 4, 5), (0, 3, 4, 5, 6)])
    def test_valuations_of_wrong_length_rejected(self, steiner, w):
        trop = TropicalData(w=w, anchor=0)
        with pytest.raises(ValidationError, match="n = 4 entries"):
            tropical_predictions(steiner, trop, check_generic=False)
        with pytest.raises(ValidationError, match="n = 4 entries"):
            estimate_valuations(steiner, trop)

    def test_nongeneric_warns(self, four_points):
        with pytest.warns(UserWarning):
            tropical_predictions(four_points, TropicalData(w=(0, 1, 2, 3), anchor=0), check_generic=True)


class TestAdmissibleSupports:
    def test_counts(self):
        assert len(admissible_supports(4, 0, 3)) == 7
        assert len(admissible_supports(6, 0, 3)) == 16
        assert admissible_supports(3, 0, 2) == [(1,), (2,), ()]


class TestEstimateValuations:
    def test_steiner_full_pipeline(self, steiner):
        trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
        estimates = estimate_valuations(steiner, trop)
        predictions = tropical_predictions(steiner, trop)
        assert {e.point.z for e in estimates} == {p.z for p in predictions}
        assert max(e.residual for e in estimates) <= 0.1
        solutions = {sol.J: sol for sol in unit_data_solutions(steiner, 0)}
        assert sorted(e.point.J for e in estimates) == sorted(solutions)
        for est in estimates:
            assert limit_gap(steiner, est, solutions[est.point.J], 0) <= 1e-3

    def test_leading_coefficient_of_series(self, steiner):
        # the arc limiting to (1:0:0:1) behaves like y_2 = 2 eps^3 + ...
        trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
        estimates = estimate_valuations(steiner, trop)
        arc = next(e for e in estimates if e.point.J == (1, 2))
        eps = 1e-2  # grid point index 2
        y = steiner.A_float @ np.array(arc.x_track[2])
        ratio = abs(y[1] / y[0]) / eps**3
        assert ratio == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize(
        "model, w, grid",
        [
            ("steiner", (0, 3, 4, 5), degeneration.DEFAULT_EPS_GRID),
            ("braid4", (0, 1, 2, 3, 4, 5), tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))),
        ],
        ids=["steiner", "braid4"],
    )
    def test_x_track_is_the_solver_chain(self, request, model, w, grid):
        """Each x_track entry is, byte for byte, the x of a _solve_batch
        chain warm-started down the grid: a figure's arc is the solver's own
        points, as plain float tuples."""
        model = request.getfixturevalue(model)
        trop = TropicalData(w=w, anchor=0)
        estimates = estimate_valuations(model, trop, eps_grid=grid)
        regions = enumerate_regions(model.arr)
        assert [est.region for est in estimates] == regions
        w = mle.to_floats(trop.w, "w")
        starts = None
        for k, eps in enumerate(grid):
            (points,) = mle._solve_batch(model, [eps**w], regions, tol=1e-10, starts=starts)
            for est, point in zip(estimates, points):
                assert np.array(est.x_track[k]).tobytes() == point.x.tobytes()
            starts = [[point.x for point in points]]
        assert {len(est.x_track) for est in estimates} == {len(grid)}
        assert {type(v) for est in estimates for x in est.x_track for v in x} == {float}

    def test_braid_matches_where_generic(self, braid4):
        trop = TropicalData(w=(0, 1, 2, 3, 4, 5), anchor=0)
        grid = tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))
        estimates = estimate_valuations(braid4, trop, eps_grid=grid)
        assert len(estimates) == 12
        solutions = unit_data_solutions(braid4, 0)
        generic = {sol.J: sol for sol in solutions if sol.generic_flag}
        predictions = {p.J: p for p in tropical_predictions(braid4, trop, check_generic=False)}
        realized = [e for e in estimates if e.point.J in generic]
        assert sorted(e.point.J for e in realized) == sorted(generic)
        for est in realized:
            assert est.residual <= 0.1
            assert est.point.z == predictions[est.point.J].z
            assert limit_gap(braid4, est, generic[est.point.J], 0) <= 1e-2

    def test_grid_validation(self, steiner):
        trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
        with pytest.raises(ValidationError):
            estimate_valuations(steiner, trop, eps_grid=(1e-1, 1e-2))
        with pytest.raises(ValidationError):
            estimate_valuations(steiner, trop, eps_grid=(1e-2, 1e-1, 1e-3))
        with pytest.raises(ValidationError):
            estimate_valuations(steiner, trop, eps_grid=(1e-1, 1e-2, -1e-3))
        # Valuations are limits as eps -> 0: an eps above 1 overflowed the data
        # of a wide w, or lost a path.
        for grid in [(math.inf, 0.1, 0.01), (0.1, math.nan, 0.01), (0.1, 0.05, math.nan), (100, 10, 2), (2, 1.5, 1.1)]:
            with pytest.raises(ValidationError, match="eps grid must be finite"):
                estimate_valuations(steiner, trop, eps_grid=grid)

    def test_grid_above_one_through_the_cli(self, tmp_path):
        """Once a bare RuntimeWarning line on stderr, then exit 2 with a
        message about data the user never gave; now one JSON error line."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "w": [0, 100, 200, 400]}))
        src = str(Path(degeneration.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sqlinear.cli", "tropical", "--input", str(path), "--anchor", "1",
             "--eps-grid", "100,10,2"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] == "ValidationError" and err["message"].startswith("eps grid must be finite")

    def test_grid_converts_as_data_does(self, steiner):
        # Through to_floats: float() alone raised ValueError on 'x' and
        # TypeError on None. A Fraction grid tracks as its doubles do.
        trop = TropicalData(w=(0, 3, 4, 5), anchor=0)
        for grid in [(0.1, 0.01, "x"), (0.1, 0.01, None), (0.1, 0.01, {}), ((0.1, 0.01, 0.001),)]:
            with pytest.raises(ValidationError):
                estimate_valuations(steiner, trop, eps_grid=grid)
        exact = (Fraction(1, 10), Fraction(1, 30), Fraction(1, 100))
        by_fraction = estimate_valuations(steiner, trop, eps_grid=exact)
        by_float = estimate_valuations(steiner, trop, eps_grid=[float(e) for e in exact])
        assert [e.slopes for e in by_fraction] == [e.slopes for e in by_float]

    def test_valuation_spread_beyond_double_range_rejected(self, steiner):
        # Each entry is a double, but their difference is not.
        trop = TropicalData(w=("-1.7e308", "1.7e308", 0, 1), anchor=0)
        with pytest.raises(ValidationError, match="too deep"):
            estimate_valuations(steiner, trop)

    @pytest.mark.parametrize("shift", [300, -400, Fraction(5, 2)], ids=["300", "-400", "5/2"])
    @pytest.mark.parametrize(
        "model, w, grid",
        [
            ("steiner", (0, 3, 4, 5), degeneration.DEFAULT_EPS_GRID),
            ("braid4", (0, 1, 2, 3, 4, 5), tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))),
            ("four_points", (0, 1, 2, 3), degeneration.DEFAULT_EPS_GRID),
        ],
        ids=["steiner", "braid4", "four_points"],
    )
    def test_shifted_valuations_give_the_same_estimates(self, request, model, w, grid, shift):
        """s(eps) and eps^c s(eps) have the same critical points, and the
        data are formed from w - w_anchor, so a common shift of w changes no
        bit of an estimate. At eps = 10^-2.5, eps^300 would underflow to 0
        and eps^-400 overflow."""
        model = request.getfixturevalue(model)
        base = estimate_valuations(model, TropicalData(w=w, anchor=0), eps_grid=grid)
        moved = estimate_valuations(model, TropicalData(w=[v + shift for v in w], anchor=0), eps_grid=grid)
        for est, other in zip(base, moved, strict=True):
            assert est.region == other.region and est.point == other.point
            assert np.array(est.slopes).tobytes() == np.array(other.slopes).tobytes()
            assert np.float64(est.residual).tobytes() == np.float64(other.residual).tobytes()
            assert np.array(est.x_track).tobytes() == np.array(other.x_track).tobytes()

    def test_shifted_valuations_through_the_cli(self, tmp_path, capsys):
        outputs = []
        for w in ([0, 3, 4, 5], [300, 303, 304, 305]):
            path = tmp_path / "input.json"
            path.write_text(json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "w": w}))
            assert main(["tropical", "--input", str(path), "--anchor", "1"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outputs.append(json.loads(out))
        base, moved = outputs
        assert moved.pop("w") == ["300", "303", "304", "305"] and base.pop("w") == ["0", "3", "4", "5"]
        assert moved == base

    @staticmethod
    def anchor_coordinate_set_to(value, monkeypatch):
        """Make every solved point carry ``value`` as its first coordinate."""
        solve_batch = mle._solve_batch

        def with_anchor(point):
            y = point.y.copy()
            y[0] = value
            return mle.CriticalPoint(
                point.region, point.x, y, point.p, point.logL, point.grad_norm, point.iterations, point.hessian_max_eig
            )

        def stubbed(*args, **kwargs):
            return [[with_anchor(point) for point in row] for row in solve_batch(*args, **kwargs)]

        monkeypatch.setattr(mle, "_solve_batch", stubbed)

    @pytest.mark.parametrize("value", [0.0, 1e-310])
    def test_vanishing_anchor_coordinate_loses_the_path(self, steiner, monkeypatch, value):
        # Zero, or so small that scaling by it overflows: no finite track.
        self.anchor_coordinate_set_to(value, monkeypatch)
        with pytest.raises(PathLost, match="anchor value"):
            estimate_valuations(steiner, TropicalData(w=(0, 3, 4, 5), anchor=0))

    def test_vanishing_anchor_coordinate_exits_3(self, tmp_path, capsys, monkeypatch):
        self.anchor_coordinate_set_to(0.0, monkeypatch)
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "w": [0, 3, 4, 5]}))
        assert main(["tropical", "--input", str(path), "--anchor", "1"]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["kind"], error["type"]) == ("numeric", "PathLost")

    @pytest.mark.parametrize(
        "model, w, grid",
        [
            ("steiner", (0, 3, 4, 5), None),
            ("braid4", (0, 1, 2, 3, 4, 5), tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))),
            ("circle", (0, 1, 2), None),
            ("six_points", (0, 2, 1, 3, 1, 2), None),
        ],
    )
    def test_one_fit_matches_a_fit_per_region(self, request, model, w, grid):
        """Slopes within 1e-12 of one polyfit per region, rounded to the
        same valuations by the nearest-target rule (0 on a tie)."""
        model = request.getfixturevalue(model)
        trop = TropicalData(w=w, anchor=0)
        grid = grid or degeneration.DEFAULT_EPS_GRID
        log_eps = np.log(np.array(grid))
        for est in estimate_valuations(model, trop, eps_grid=grid):
            ys = np.array(est.x_track) @ model.A_float.T
            slopes = np.polyfit(log_eps, np.log(np.abs(ys / ys[:, :1])), 1)[0]
            slopes[0] = 0.0
            assert np.max(np.abs(np.array(est.slopes) - slopes)) <= 1e-12
            z = tuple(
                min({Fraction(0), w[j] - w[0]}, key=lambda t: abs(slope - float(t)))
                for j, slope in enumerate(slopes)
            )
            assert est.point.z == z
            assert est.point.J == tuple(j for j, v in enumerate(z) if v != 0)

    def test_anchor_invariance_of_canonical_form(self, steiner):
        trop = TropicalData(w=(Fraction(0), 3, 4, 5), anchor=0)
        estimates = estimate_valuations(steiner, trop)
        for est in estimates:
            assert est.point.z[0] == 0
            assert all(z == 0 for j, z in enumerate(est.point.z) if j not in est.point.J)
