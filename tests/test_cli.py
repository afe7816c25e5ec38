import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest

import sqlinear
from sqlinear.arrangement import characteristic_polynomial
from sqlinear.catalog import four_points_arrangement, seven_lines_arrangement
from sqlinear.cli import main
from sqlinear.jsonio import arrangement_to_json

STEINER = {
    "schema": "slm/1",
    "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "labels": ["x1", "x2", "x3", "x1+x2+x3"],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc, *extra, name="input.json"):
    input_path = write_json(tmp_path / name, doc)
    output_path = tmp_path / "out.json"
    code = main([command, "--input", input_path, "--output", str(output_path), *extra])
    text = output_path.read_text() if output_path.exists() else ""
    return code, text


class TestBasicCommands:
    def test_mldegree_steiner(self, tmp_path):
        code, text = run(tmp_path, "mldegree", STEINER)
        assert code == 0
        doc = json.loads(text)
        assert doc["ml_degree"] == 7
        assert doc["char_poly"] == [1, -4, 6, -3]
        assert doc["schema"] == "slm/1"

    def test_mldegree_walks_chi_once(self, tmp_path, monkeypatch):
        from sqlinear import arrangement

        walks = []

        def counted(arr):
            walks.append(arr)
            return characteristic_polynomial(arr)

        monkeypatch.setattr(arrangement, "characteristic_polynomial", counted)
        code, text = run(tmp_path, "mldegree", STEINER)
        assert (code, len(walks), json.loads(text)["ml_degree"]) == (0, 1, 7)

    def test_charpoly(self, tmp_path):
        code, text = run(tmp_path, "charpoly", STEINER)
        assert code == 0
        assert json.loads(text)["char_poly"] == [1, -4, 6, -3]

    def test_regions_round_trip(self, tmp_path):
        from fractions import Fraction

        code, text = run(tmp_path, "regions", STEINER)
        assert code == 0
        doc = json.loads(text)
        assert doc["count"] == 7
        for region in doc["regions"]:
            assert re.fullmatch(r"[+-]{4}", region["sign"])
            for value in region["witness"]:
                Fraction(value)

    def test_degenerate_anchor_one(self, tmp_path):
        code, text = run(tmp_path, "degenerate", STEINER, "--anchor", "1")
        assert code == 0
        doc = json.loads(text)
        assert len(doc["solutions"]) == 7
        ys = {tuple(sol["y"]) for sol in doc["solutions"]}
        assert ("3", "-1", "-1", "1") in ys
        assert all(sol["generic"] for sol in doc["solutions"])

    def test_mle(self, tmp_path):
        doc = dict(STEINER, s=[0.4, 0.3, 0.2, 0.1])
        code, text = run(tmp_path, "mle", doc)
        assert code == 0
        out = json.loads(text)
        assert out["ml_degree"] == 7
        assert len(out["critical_points"]) == 7
        logls = [p["logL"] for p in out["critical_points"]]
        assert max(logls) == logls[out["mle_index"]]

    def test_tropical(self, tmp_path):
        doc = dict(STEINER, w=[0, 3, 4, 5])
        code, text = run(tmp_path, "tropical", doc, "--anchor", "1")
        assert code == 0
        out = json.loads(text)
        assert len(out["predictions"]) == 7
        assert len(out["estimates"]) == 7
        assert all(e["residual"] <= 0.1 for e in out["estimates"])
        predicted = {tuple(p["z"]) for p in out["predictions"]}
        assert {tuple(e["z_hat"]) for e in out["estimates"]} == predicted

    def test_lognormal(self, tmp_path):
        doc = {
            "A": [[1, 0], [1, 1], [1, 2], [0, 1]],
            "y": [3, 2, 1, -1],
        }
        code, text = run(tmp_path, "lognormal", doc)
        assert code == 0
        out = json.loads(text)
        assert out["polytope"]["f_vector"] == [4, 4]
        assert out["dual_f_vector"] == [4, 4]
        swaps = {(c["i"], c["j"], c["sigma"]) for c in out["swap_candidates"]}
        assert (1, 3, "+++-") in swaps and (2, 4, "+---") in swaps

    def test_lognormal_builds_one_data_cone(self, tmp_path, monkeypatch):
        """The dual f-vector is P's reversed, so Q's data cone is not built;
        braid(4) at y = A (1, 3, -2) has a 3-dimensional P, where reversal shows."""
        from sqlinear import geometry
        from sqlinear.catalog import braid_arrangement
        from sqlinear.model import make_model

        arr = braid_arrangement(4)
        y = arr.form_values((1, 3, -2))
        cones = []
        data_cone = geometry._data_cone

        def counted(B, y):
            cones.append(y)
            return data_cone(B, y)

        monkeypatch.setattr(geometry, "_data_cone", counted)
        code, text = run(tmp_path, "lognormal", dict(arrangement_to_json(arr), y=[str(v) for v in y]))
        assert code == 0 and len(cones) == 1
        out = json.loads(text)
        monkeypatch.undo()
        dual = geometry.dual_polytope(make_model(arr), y)
        assert out["dual_f_vector"] == list(dual.f_vector) != out["polytope"]["f_vector"]

    def test_chamber(self, tmp_path):
        doc = {"A": [[1, i] for i in range(1, 7)]}
        code, text = run(tmp_path, "chamber", doc)
        assert code == 0
        out = json.loads(text)
        assert out["count"] == 12
        assert ["3", "-7"] in out["forms"]

    def test_chamber_drops_parallel_input_rows(self, tmp_path):
        # l2 = 2 l1 and the wall ch{1,2} share one form, which keeps l1's label.
        code, text = run(tmp_path, "chamber", {"A": [[1, 0], [2, 0], [0, 1]]})
        assert code == 0
        out = json.loads(text)
        assert (out["count"], out["forms"], out["labels"]) == (2, [["1", "0"], ["0", "1"]], ["l1", "l3"])
        assert out["duplicates"] == [
            {"kept": "l1", "dropped": ["l2", "ch{1,2}"]},
            {"kept": "l3", "dropped": ["ch{1,3}", "ch{2,3}"]},
        ]

    def test_exact_commands_on_seven_lines_chamber_forms(self, tmp_path):
        # 28 rows: past the 24-row budget chi once had.
        code, text = run(tmp_path, "chamber", arrangement_to_json(seven_lines_arrangement()))
        assert code == 0
        forms = {"A": json.loads(text)["forms"]}
        assert len(forms["A"]) == 28
        code, text = run(tmp_path, "charpoly", forms)
        assert code == 0
        assert json.loads(text)["char_poly"] == [1, -28, 299, -272]
        code, text = run(tmp_path, "mldegree", forms)
        assert code == 0
        assert json.loads(text)["ml_degree"] == 300

    def test_voronoi(self, tmp_path):
        doc = {
            "A": [[1, 0], [1, 1], [1, 2], [0, 1]],
            "y": [3, 2, 1, -1],
            "segment": {
                "start": ["3/5", "4/15", "1/15", "1/15"],
                "end": ["3/50", "2/75", "11/30", "41/75"],
            },
        }
        code, text = run(tmp_path, "voronoi", doc, "--samples", "8")
        assert code == 0
        out = json.loads(text)
        assert out["profile"][0]["region"] == "+++-"
        assert len(out["crossings"]) >= 1

    def test_dpp(self, tmp_path):
        doc = {
            "Theta_fixed": [[1, 1, 1, 1]],
            "k": 2,
            "n": 4,
        }
        code, text = run(tmp_path, "dpp", doc)
        assert code == 0
        out = json.loads(text)
        assert out["ml_degree"] == 12
        assert out["ml_degree_formula"] == 12
        assert len(out["states"]) == 6

    def test_dpp_distribution(self, tmp_path):
        doc = {
            "Theta_fixed": [[1, 1, 1, 1]],
            "k": 2,
            "n": 4,
            "Theta": [[1, 1, 1, 1], [0.3, -1.2, 0.7, 2.1]],
        }
        code, text = run(tmp_path, "dpp", doc)
        assert code == 0
        out = json.loads(text)
        dist = out["distribution"]
        assert [entry["sigma"] for entry in dist] == sorted(e["sigma"] for e in dist)
        assert abs(sum(e["prob"] for e in dist) - 1.0) <= 1e-12

    @pytest.mark.parametrize("big", ["1e300", "1e200"])
    def test_dpp_badly_scaled_theta(self, tmp_path, big):
        doc = {"Theta_fixed": [[1, 1, 1, 1]], "k": 2, "n": 4, "Theta": [[1, 1, 1, 1], [big, 1, 2, 3]]}
        code, text = run(tmp_path, "dpp", doc)
        assert code == 0
        probs = [e["prob"] for e in json.loads(text)["distribution"]]
        assert all(math.isfinite(p) for p in probs)
        assert abs(sum(probs) - 1.0) <= 1e-12

    def test_dpp_theta_of_wrong_shape_rejected(self, tmp_path, capsys):
        doc = {"Theta_fixed": [[1, 2, 3, 4, 5], [2, -1, 4, 1, -3]], "k": 3, "n": 5, "Theta": [[1, 2], [3, 4]]}
        code, text = run(tmp_path, "dpp", doc)
        assert code == 2 and text == ""
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert "3 x 5" in error["message"]

    def test_dpp_dependent_theta_rejected(self, tmp_path, capsys):
        doc = {"Theta_fixed": [[1, 1, 1, 1]], "k": 2, "n": 4, "Theta": [[1, 2, 3, 4], [2, 4, 6, 8]]}
        code, text = run(tmp_path, "dpp", doc)
        assert code == 2 and text == ""
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "RankDeficient"

    def test_dpp_input_missing_a_key_rejected(self, tmp_path, capsys):
        code, text = run(tmp_path, "dpp", {"Theta_fixed": [[1, 1, 1, 1]], "n": 4})
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("ValidationError", "DPP input needs key 'k'")

    def test_rational_string_input(self, tmp_path):
        doc = {"A": [["1/2", "0"], ["0", "1/3"], ["1/2", "1/3"]]}
        code, text = run(tmp_path, "mldegree", doc)
        assert code == 0
        assert json.loads(text)["ml_degree"] == 3

    def test_ideal(self, tmp_path):
        doc = {
            "A": [
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [1, 1, 1],
                [1, 2, 3],
                [1, 5, 7],
                [1, 11, 13],
            ]
        }
        code, text = run(tmp_path, "ideal", doc)
        assert code == 0
        out = json.loads(text)
        assert out["n_linear_forms"] == 1
        assert out["minor_space_dim"] == 6

    def test_singular(self, tmp_path):
        code, text = run(tmp_path, "singular", STEINER)
        assert code == 0
        out = json.loads(text)
        assert out["count"] == 3
        assert all(sub["projective_dimension"] == 1 for sub in out["subspaces"])


# chart -> (input with data s and valuations w, its region count)
CHARTS = {
    "d2": (dict(arrangement_to_json(four_points_arrangement()), s=[1, 2, 3, 4], w=[0, 1, 2, 3]), 4),
    "d3": (dict(STEINER, s=[1, 0.027, 0.0081, 0.00243], w=[0, 3, 4, 5]), 7),
}
# command -> (arguments besides --svg, the overlay kinds its figure draws)
FIGURES = {
    "regions": ([], {"region-label"}),
    "mle": ([], {"critical-point"}),
    "tropical": (["--anchor", "1"], {"arc", "limit-point"}),
    "plot": (["--anchor", "1"], {"arc", "critical-point", "limit-point"}),
}


class TestPlot:
    def test_steiner_figure_contents(self, tmp_path):
        doc = dict(STEINER, w=[0, 3, 4, 5], s=[1, 0.027, 0.0081, 0.00243])
        code, text = run(tmp_path, "plot", doc, "--anchor", "1")
        assert code == 0
        assert text.startswith("<svg")
        assert len(re.findall('class="hyperplane"', text)) == 4
        assert len(re.findall('class="arc"', text)) == 7
        assert len(re.findall('class="limit-point"', text)) == 7
        assert len(re.findall('class="critical-point"', text)) == 7

    def test_plain_arrangement_only(self, tmp_path):
        code, text = run(tmp_path, "plot", STEINER)
        assert code == 0
        assert len(re.findall('class="hyperplane"', text)) == 4
        assert 'class="arc"' not in text
        assert 'class="critical-point"' not in text

    def test_circle_with_fiber(self, tmp_path):
        doc = {"A": [[1, 0], [0, 1], [1, 1]], "y": [1, 2, 3]}
        code, text = run(tmp_path, "plot", doc)
        assert code == 0
        assert len(re.findall('class="hyperplane"', text)) == 3
        assert 'class="lognormal-fiber"' in text
        assert 'class="simplex"' in text

    @pytest.mark.parametrize("chart", sorted(CHARTS))
    @pytest.mark.parametrize("command", sorted(FIGURES))
    def test_each_overlay_drawn_once_on_both_charts(self, tmp_path, chart, command):
        """Every overlay kind on the d = 2 and the d = 3 chart: one element
        per input, and none of the kinds the command does not draw. Each
        kind has one input per region here (the anchor-1 limit points too)."""
        doc, count = CHARTS[chart]
        extra, drawn = FIGURES[command]
        svg = tmp_path / "figure.svg"
        code, text = run(tmp_path, command, doc, *extra, *(["--svg", str(svg)] if command != "plot" else []))
        assert code == 0
        figure = text if command == "plot" else svg.read_text()
        for kind in ("arc", "critical-point", "limit-point", "region-label"):
            assert len(re.findall(f'class="{kind}"', figure)) == (count if kind in drawn else 0), kind
        if command == "regions":
            labels = re.findall(r'<text class="region-label"[^>]*>([+-]+)</text>', figure)
            assert sorted(labels) == sorted(r["sign"] for r in json.loads(text)["regions"])

    def test_dimension_unsupported(self, tmp_path):
        doc = {"A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]}
        code, _ = run(tmp_path, "plot", doc)
        assert code == 2

    @pytest.mark.parametrize(
        "A",
        [
            [[1, 0, 0], [0, 1, 0], [1, 1e-320, 0], [0, 0, 1], [1, 1, 1]],
            [[1, 0], [1, 1e-320], [1, 2e-320], [0, 1]],
        ],
        ids=["d3", "d2"],
    )
    def test_subnormal_first_form_values_stay_off_the_chart(self, tmp_path, A):
        # Dividing by a subnormal first-form value overflows the chart
        # coordinates; such points are skipped like points at infinity.
        svg = tmp_path / "figure.svg"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(tmp_path, "regions", {"A": A}, "--svg", str(svg))
        assert code == 0
        assert [str(w.message) for w in caught] == []
        text = svg.read_text()
        assert text.startswith("<svg")
        assert not re.search(r"nan|inf", text)

    @pytest.mark.parametrize("A", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], ids=["d2", "d3"])
    def test_regions_figure_takes_what_regions_takes(self, tmp_path, A):
        # n = d is no model, and --svg once built one and exited 2.
        svg = tmp_path / "figure.svg"
        plain = run(tmp_path, "regions", {"A": A})
        drawn = run(tmp_path, "regions", {"A": A}, "--svg", str(svg))
        assert plain[0] == 0 and drawn == plain
        labels = re.findall(r'<text class="region-label"[^>]*>([+-]+)</text>', svg.read_text())
        assert sorted(labels) == sorted(r["sign"] for r in json.loads(plain[1])["regions"])

    @pytest.mark.parametrize("A", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], ids=["d2", "d3"])
    def test_plot_takes_what_regions_takes(self, tmp_path, capsys, A):
        # n = d is no model: the bare figure once built one and exited 2. Data still needs one.
        code, text = run(tmp_path, "plot", {"A": A})
        assert code == 0 and len(re.findall('class="hyperplane"', text)) == len(A)
        assert run(tmp_path, "plot", {"A": A, "s": [1] * len(A)})[0] == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("RankDeficient", f"model needs n > d > 1, got n = {len(A)}, d = {len(A)}")

    def test_overlays_off_the_figure_are_not_drawn(self, steiner):
        # (0, 1, 1) lies on the first form, at infinity on the chart {first
        # form = 1}; Steiner's log-normal polytope lives in R^4, and only a
        # 3-state one has a probability triangle to draw in.
        from sqlinear.geometry import lognormal_polytope
        from sqlinear.plotting import plot_arrangement

        figure = plot_arrangement(steiner.arr, critical_points=[(0, 1, 1), (3, 2, 1)])
        assert len(re.findall('class="critical-point"', figure)) == 1
        polytope = lognormal_polytope(steiner, [3, 2, 1, 6])
        assert polytope.ambient_dim == 4
        assert plot_arrangement(steiner.arr, lognormal=polytope) == plot_arrangement(steiner.arr)

    def test_plot_builds_no_model_for_a_fiber_it_does_not_draw(self, tmp_path):
        # "y" draws the fiber only when n = 3; at n = d = 2 it once built a model and exited 2.
        bare = run(tmp_path, "plot", {"A": [[1, 0], [0, 1]]})
        assert bare[0] == 0 and run(tmp_path, "plot", {"A": [[1, 0], [0, 1]], "y": [1, 1]}) == bare

    @pytest.mark.parametrize(
        "command, A",
        [("regions", [[1, 0], [0, 1], [1, 1]]), ("plot", STEINER["A"])],
        ids=["regions-d2", "plot-d3"],
    )
    def test_labels_are_escaped(self, tmp_path, command, A):
        # Labels went into data-label unescaped, and the figure did not parse.
        labels = ["<a>", "a&b", 'say "hi"', "x4"][: len(A)]
        svg = tmp_path / "figure.svg"
        code, text = run(tmp_path, command, {"A": A, "labels": labels}, *(["--svg", str(svg)] if command != "plot" else []))
        assert code == 0
        root = ElementTree.fromstring(text if command == "plot" else svg.read_text())
        assert sorted(e.get("data-label") for e in root.iter() if "data-label" in e.attrib) == sorted(labels)

    @pytest.mark.parametrize(
        "command, extra",
        [("plot", ["--anchor", "1"]), ("mle", ["--svg", "figure.svg"]), ("tropical", ["--anchor", "1", "--svg", "figure.svg"])],
    )
    def test_figure_dimension_checked_before_any_work(self, tmp_path, capsys, monkeypatch, command, extra):
        # These once solved every region and tracked every path before exiting 2.
        from sqlinear import mle
        from sqlinear.catalog import braid_arrangement

        def no_solve(*args, **kwargs):
            raise AssertionError("a figure of d = 4 solved a batch")

        monkeypatch.setattr(mle, "_solve_batch", no_solve)
        doc = dict(arrangement_to_json(braid_arrangement(5)), s=list(range(1, 11)), w=list(range(10)))
        code, text = run(tmp_path, command, doc, *extra)
        assert (code, text) == (2, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("DimensionUnsupported", "plotting supports d in (2, 3), got d = 4")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        doc = dict(STEINER, s=[0.4, 0.3, 0.2, 0.1])
        _, first = run(tmp_path, "mle", doc)
        _, second = run(tmp_path, "mle", doc)
        assert first == second

    def test_svg_determinism(self, tmp_path):
        doc = dict(STEINER, w=[0, 3, 4, 5])
        _, first = run(tmp_path, "plot", doc, "--anchor", "1")
        _, second = run(tmp_path, "plot", doc, "--anchor", "1")
        assert first == second


class TestExitCodes:
    def test_missing_input(self, tmp_path, capsys):
        code = main(["mldegree", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "validation"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["mldegree", "--input", str(path)]) == 2

    def test_out_of_memory(self, tmp_path):
        """A run that exhausts memory exits 2 with a JSON error, not 1 with a
        traceback. Only the child process gets the 500 MB address-space cap,
        and one BLAS thread so that numpy's import fits under it."""

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (500 << 20, 500 << 20))

        doc = {
            "A": [[1, 0], [1, 1], [1, 2], [0, 1]],
            "y": [3, 2, 1, -1],
            "segment": {"start": ["3/5", "4/15", "1/15", "1/15"], "end": ["3/50", "2/75", "11/30", "41/75"]},
        }
        src = str(Path(sqlinear.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sqlinear.cli", "voronoi", "--input", write_json(tmp_path / "in.json", doc),
             "--samples", "10000000"],
            capture_output=True, text=True, timeout=120, preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]
        assert (err["kind"], err["type"]) == ("validation", "MemoryError") and err["message"]

    def test_zero_row(self, tmp_path, capsys):
        for A, message in (
            ([[1, 0], [0, 0], [0, 1]], "row 1 of the coefficient matrix is zero"),
            ([[]], "arrangement needs at least one row and one column"),
        ):
            code, _ = run(tmp_path, "mldegree", {"A": A})
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"]["message"] == message

    def test_out_of_memory_in_a_command(self, tmp_path, capsys, monkeypatch):
        # A bare MemoryError has no message; the error JSON gives one.
        from sqlinear import cli

        def exhausted(doc, args):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "mldegree", (exhausted, *cli.COMMANDS["mldegree"][1:]))
        code, text = run(tmp_path, "mldegree", STEINER)
        assert (code, text) == (2, "")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["kind"], err["type"], err["message"]) == ("validation", "MemoryError", "out of memory")

    @pytest.mark.parametrize("label", [{"x": 1}, 7, None, ["x"], True], ids=["object", "number", "null", "list", "bool"])
    def test_label_that_is_no_string(self, tmp_path, capsys, label):
        # The label's Python str() went into the output, with exit 0.
        doc = {"A": [[1, 0], [0, 1], [1, 1], [1, -1]], "labels": ["a", "b", label, "d"]}
        code, text = run(tmp_path, "chamber", doc)
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and err["message"] == "labels must be one string per row of A"

    def test_rank_deficient(self, tmp_path):
        doc = {"A": [[1, 0], [2, 0], [3, 0]], "s": [1, 1, 1]}
        code, _ = run(tmp_path, "mle", doc)
        assert code == 2

    def test_missing_field(self, tmp_path):
        code, _ = run(tmp_path, "mle", STEINER)  # no data vector
        assert code == 2

    def test_numeric_failure_exit_three(self, tmp_path, capsys):
        doc = dict(STEINER, s=[0.4, 0.3, 0.2, 0.1])
        input_path = write_json(tmp_path / "in.json", doc)
        code = main(["mle", "--input", input_path, "--tol", "1e-30"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "numeric"

    def test_form_value_underflow_at_convergence_exits_three(self, tmp_path, capsys):
        # s_i = 1e-5^w_i spans 1e-15 to 1. One region converges to a point
        # with a form value of exactly 0.0, whose Hessian holds an infinity;
        # the stacked eigenvalue call of the batch's finish once raised
        # LinAlgError for every row, and the command exited 1.
        A = [
            [6, -1, 7, 1, 1], [2, -5, 8, -1, 6], [1, 2, 0, 4, -3], [-9, -2, -7, 8, -7],
            [-5, 3, -8, -8, 8], [-9, -1, 0, -9, -3], [-4, -7, 9, 7, -4], [1, -3, -9, -8, -7],
            [1, -4, 4, -5, 2], [-7, 0, -7, -3, -5], [-2, 1, 9, -1, -4], [-6, 9, 7, -7, -2],
        ]
        w = (2, 1, 0, 1, 1, 0, 3, 0, 0, 2, 0, 3)
        code, text = run(tmp_path, "mle", {"A": A, "s": [1e-5**v for v in w]})
        assert (code, text) == (3, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("numeric", "NoConvergence")
        assert sum("coordinate underflow" in f["message"] for f in err["failures"]) == 1

    def test_non_finite_decrement_is_null_in_the_error_json(self, tmp_path, capsys):
        # A^T A overflows, so every region's first decrement is NaN, for
        # which JSON has no token: each trace writes it as null.
        def not_json(token):
            raise ValueError(f"{token} is not JSON")

        doc = {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, "1e300"]], "s": [1, 2, 3, 4]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run(tmp_path, "mle", doc)
        assert (code, text) == (3, "")
        assert [str(w.message) for w in caught] == []
        err = json.loads(capsys.readouterr().err, parse_constant=not_json)["error"]
        assert len(err["failures"]) == 7
        assert all(f["trace"] == [[0, None]] for f in err["failures"])

    @pytest.mark.parametrize("s", [[float("nan"), 1, 1, 1], [1e308, 1e308, 2, 3], ["1e-400", 1, 1, 1]])
    def test_mle_non_finite_data(self, tmp_path, capsys, s):
        code, text = run(tmp_path, "mle", dict(STEINER, s=s))
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "command, fields, extra",
        [
            ("mle", {"s": ["1e400", 2, 3, 4]}, []),
            ("plot", {"s": ["1e400", 2, 3, 4]}, []),
            ("tropical", {"w": [0, "1e400", 3, 2]}, ["--anchor", "1"]),
            ("lognormal", {"y": ["1e400", 2, 1, -1]}, []),
            ("voronoi", {"y": [3, 2, 1, -1], "segment": {"start": ["9e400", "4e400", "1e400", "1e400"], "end": [9, 4, 1, 1]}}, []),
            ("dpp", {"Theta_fixed": [[1, 1, 1, 1]], "k": 2, "n": 4, "Theta": [[1, 1, 1, 1], ["1e400", 1, 2, 3]]}, []),
            ("mle", {"A": [["1e400", 0], [1, 1], [1, 2], [0, 1]], "s": [1, 2, 3, 4]}, []),
            ("tropical", {"A": [["1e400", 0], [1, 1], [1, 2], [0, 1]], "w": [0, 1, 3, 2]}, ["--anchor", "1"]),
            ("plot", {"A": [["1e400", 0], [1, 1], [1, 2], [0, 1]], "s": [1, 2, 3, 4]}, []),
            # Each entry is a double; max(w) - w[anchor] is not.
            ("tropical", {"w": ["-1.7e308", "1.7e308", 0, 1]}, ["--anchor", "1"]),
            # The exact parameters of the tracked points are beyond double range.
            (
                "plot",
                {"A": [[1, 0, 0], [0, 1, 1e-320], [0, 0, 1], [1, 1, 1]], "s": [4, 3, 2, 1], "w": [0, 3, 4, 5]},
                ["--anchor", "1"],
            ),
        ],
        ids=[
            "mle", "plot", "tropical", "lognormal", "voronoi", "dpp",
            "mle-A", "tropical-A", "plot-A", "tropical-w-spread", "plot-parameters",
        ],
    )
    def test_rational_beyond_double_range(self, tmp_path, capsys, command, fields, extra):
        doc = {"A": [[1, 0], [1, 1], [1, 2], [0, 1]], **fields}
        code, text = run(tmp_path, command, doc, *extra)
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    @pytest.fixture
    def unreachable_tol(self, monkeypatch):
        """Every solve runs at tol = 0, which no Newton decrement passes; the
        CLI accepts only tol in (0, 1)."""
        from sqlinear import mle

        solve_batch = mle._solve_batch

        def at_zero_tol(model, data, regions, tol, starts=None):
            return solve_batch(model, data, regions, 0.0, starts)

        monkeypatch.setattr(mle, "_solve_batch", at_zero_tol)

    def test_every_region_failing_lists_all_failures(self, tmp_path, capsys, unreachable_tol):
        code, text = run(tmp_path, "mle", dict(STEINER, s=[0.4, 0.3, 0.2, 0.1]))
        assert code == 3 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "NoConvergence"
        assert len(err["failures"]) == 7
        assert len({f["region"] for f in err["failures"]}) == 7
        for failure in err["failures"]:
            assert failure["type"] == "NoConvergence"
            assert failure["trace"] and all(len(step) == 2 for step in failure["trace"])

    def test_voronoi_with_no_region_converging(self, tmp_path, capsys, unreachable_tol):
        doc = dict(
            {"A": [[1, 0], [1, 1], [1, 2], [0, 1]], "y": [3, 2, 1, -1]},
            segment={"start": ["3/5", "4/15", "1/15", "1/15"], "end": ["3/50", "2/75", "11/30", "41/75"]},
        )
        code, text = run(tmp_path, "voronoi", doc, "--samples", "4")
        assert code == 3 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"], err["message"]) == ("numeric", "NoConvergence", "no region converged")
        assert [f["region"] for f in err["failures"]] == ["++++", "+++-", "++--", "+---"]
        assert all(f["type"] == "NoConvergence" and f["trace"] for f in err["failures"])

    def test_partial_failure_lists_only_failed_regions(self, tmp_path, capsys, monkeypatch):
        # One region gets a witness with the wrong signs, so it alone fails.
        from sqlinear import mle
        from sqlinear.arrangement import Region, enumerate_regions

        solve_all = mle.solve_all

        def one_bad_witness(model, s, tol):
            regions = enumerate_regions(model.arr)
            regions[2] = Region(sign=regions[2].sign, ray=regions[3].ray)
            return solve_all(model, s, tol, regions=regions)

        monkeypatch.setattr(mle, "solve_all", one_bad_witness)
        code, _ = run(tmp_path, "mle", dict(STEINER, s=[0.4, 0.3, 0.2, 0.1]))
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "numeric"
        assert [f["region"] for f in err["failures"]] == ["++--"]
        assert err["failures"][0]["message"] == "start point does not satisfy the region signs"

    def test_plot_fails_like_mle_on_a_partial_failure(self, tmp_path, capsys, monkeypatch):
        # plot once drew the converged points and exited 0.
        from sqlinear import mle
        from sqlinear.arrangement import Region, enumerate_regions

        solve_all = mle.solve_all

        def one_bad_witness(model, s, tol):
            regions = enumerate_regions(model.arr)
            regions[2] = Region(sign=regions[2].sign, ray=regions[3].ray)
            return solve_all(model, s, tol, regions=regions)

        monkeypatch.setattr(mle, "solve_all", one_bad_witness)
        doc = dict(STEINER, s=[0.4, 0.3, 0.2, 0.1])
        outcomes = []
        for command in ("mle", "plot"):
            code, text = run(tmp_path, command, doc)
            outcomes.append((code, text, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        code, text, err = outcomes[1]
        assert (code, text) == (3, "")
        assert [f["region"] for f in json.loads(err)["error"]["failures"]] == ["++--"]

    def test_plot_anchor_needs_valuations(self, tmp_path, capsys):
        # --anchor without "w" once drew no arcs; "w" without --anchor still draws none.
        code, text = run(tmp_path, "plot", dict(STEINER, s=[4, 3, 2, 1]), "--anchor", "1")
        assert (code, text) == (2, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("ValidationError", "this command needs key 'w' in the input")
        code, text = run(tmp_path, "plot", dict(STEINER, w=[0, 3, 4, 5]))
        assert code == 0 and 'class="arc"' not in text

    def test_plot_data_of_wrong_length(self, tmp_path, capsys):
        code, _ = run(tmp_path, "plot", dict(STEINER, s=[1, 2, 3]))
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("ValidationError", "data vector must have n = 4 entries, got shape (3,)")

    @pytest.mark.parametrize(
        "last, message",
        [
            ([0, 1, 1], "; reordering the rows as 1, 2, 3, 5, 6, 7, 4 makes them independent"),
            ([1, 2, 0], ", and no row order makes them independent"),
        ],
        ids=["repairable", "unrepairable"],
    )
    def test_ideal_dependent_leading_block(self, tmp_path, capsys, last, message):
        # The squares of the first four forms lie in the 3-dimensional span of x1^2, x1 x2, x2^2.
        doc = {"A": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, 1], last]}
        assert run(tmp_path, "ideal", doc) == (2, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == (
            "DegenerateLeadingBlock",
            "squares of the first N = 6 forms are linearly dependent" + message,
        )

    def test_chamber_determinant_vanishing_identically(self, tmp_path, capsys):
        # Columns 1, 3 and 4 of B have rank 1, below n - d = 2.
        doc = {"A": [[0, -1, 0], [1, 1, -1], [1, 0, -1], [-1, -1, 0], [-1, -1, 1]]}
        code, text = run(tmp_path, "chamber", doc)
        assert (code, text) == (2, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == (
            "DegenerateMinor",
            "chamber determinant for subset (0, 2, 3) vanishes identically",
        )

    def test_mle_data_of_wrong_length(self, tmp_path, capsys):
        code, _ = run(tmp_path, "mle", dict(STEINER, s=[1, 2, 3]))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "n = 4" in err["error"]["message"]

    @pytest.mark.parametrize("key, value", [("k", "two"), ("k", 3.5), ("k", True), ("n", 5.0)])
    def test_dpp_non_integer_size(self, tmp_path, capsys, key, value):
        doc = {"Theta_fixed": [[1, 2, 3, 4, 5], [2, -1, 4, 1, -3]], "k": 3, "n": 5}
        code, _ = run(tmp_path, "dpp", dict(doc, **{key: value}))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert repr(key) in err["error"]["message"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_voronoi_samples_below_one(self, tmp_path, capsys, samples):
        doc = dict(
            {"A": [[1, 0], [1, 1], [1, 2], [0, 1]], "y": [3, 2, 1, -1]},
            segment={"start": ["3/5", "4/15", "1/15", "1/15"], "end": ["3/50", "2/75", "11/30", "41/75"]},
        )
        code, text = run(tmp_path, "voronoi", doc, "--samples", samples)
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and "steps" in err["message"]

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1", "1e300"])
    def test_mle_tolerance_not_finite_positive(self, tmp_path, capsys, tol):
        code, text = run(tmp_path, "mle", dict(STEINER, s=[4, 3, 2, 1]), "--tol", tol)
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation" and "tol" in err["message"]

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["regions"], "--input"),
            (["frobnicate", "--input", "x.json"], "invalid choice"),
            (["regions", "--input", "x.json", "--tol", "1"], "unrecognized arguments: --tol 1"),
            (["mldegree", "--input", "x.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["degenerate", "--input", "x.json", "--anchor", "one"], "invalid int value"),
            ([], "command"),
            (["charpoly", "--input", "{input}", "--output", "{tmp}/missing/out.json"], "cannot write output"),
            (["regions", "--input", "{input}", "--svg", "{tmp}/missing/f.svg"], "cannot write output"),
        ],
    )
    def test_usage_errors_are_json(self, tmp_path, capsys, argv, fragment):
        input_path = write_json(tmp_path / "input.json", STEINER)
        argv = [a.format(input=input_path, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["schema"] == "slm/1"
        assert err["error"]["kind"] == "validation"
        assert fragment in err["error"]["message"]

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["voronoi", "-h"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--samples" in out and "--tol" in out and "--anchor" not in out

    def test_each_command_takes_only_the_flags_it_reads(self):
        from sqlinear.cli import COMMANDS, build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        optional = 0
        for name, (_, _, flags) in COMMANDS.items():
            taken = {s for a in sub.choices[name]._actions for s in a.option_strings}
            assert taken == {"-h", "--help", "--input", "--output", *flags}
            optional += len(flags)
        # With --output on every command: 13 + 12 = 25 optional values, was 13 x 7 = 91.
        assert optional == 12

    @pytest.mark.parametrize(
        "text",
        [
            '{"A": [[1' + "0" * 4999 + ", 0], [0, 1], [1, 1]]}",
            '{"A": ' + "[" * 100_000 + "]" * 100_000 + "}",
            b'{"A": [[1, 0], [0, 1], [1, 1]], "labels": ["\xff", "b", "c"]}',
        ],
        ids=["integer-past-digit-limit", "nested-past-recursion-limit", "not-utf8"],
    )
    def test_unreadable_input(self, tmp_path, capsys, text):
        path = tmp_path / "input.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["regions", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ValidationError" and err["message"].startswith("cannot read input")

    def test_exact_answer_past_the_digit_limit_is_written_in_full(self, tmp_path):
        """The input's integers stay below Python's limit on the digits of an
        integer string (4300 by default), but a witness of its regions does
        not; the answer is written in full and the limit is left as it was."""
        from sqlinear.arrangement import enumerate_regions
        from sqlinear.jsonio import arrangement_from_json, rationals_to_json

        doc = {"A": [["7" * 2500, "1" * 2400, 1], [1, "3" * 2500, "5"], [1, 1, "9" * 2300], [1, 2, 3]]}
        limit = sys.get_int_max_str_digits()
        code, text = run(tmp_path, "regions", doc)
        assert code == 0 and sys.get_int_max_str_digits() == limit
        regions = json.loads(text)["regions"]
        assert max(len(v) for r in regions for v in r["witness"]) > limit
        expected = enumerate_regions(arrangement_from_json(doc))
        assert [r["sign"] for r in regions] == [str(r.sign) for r in expected]
        assert [r["witness"] for r in regions] == [rationals_to_json(r.witness) for r in expected]

    @pytest.mark.parametrize("command", ["tropical", "plot"])
    def test_empty_eps_grid(self, tmp_path, capsys, command):
        code, text = run(tmp_path, command, dict(STEINER, w=[0, 3, 4, 5]), "--anchor", "1", "--eps-grid", "")
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and "--eps-grid" in err["message"]

    @pytest.mark.parametrize("w", [[0, 4, 5], [0, 3, 4, 5, 6]])
    def test_tropical_valuations_of_wrong_length(self, tmp_path, capsys, w):
        code, text = run(tmp_path, "tropical", dict(STEINER, w=w), "--anchor", "1")
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and "n = 4 entries" in err["message"]

    @pytest.mark.parametrize("command", ["tropical", "plot"])
    @pytest.mark.parametrize(
        "w, anchor, error, message",
        [
            # Once "anchor 1 is not the strict minimum of w": the 0-based index of --anchor 2.
            ([0, 3, 4, 5], "2", "AnchorNotUnique", "anchor is not the strict minimum of w, which is at state 1"),
            ([0, 3, 3, 0], "1", "AnchorNotUnique", "minimum of w attained at states [1, 4]"),
            # Once "anchor 3 is not the strict minimum of w", before the length check.
            ([0, 3, 4], "4", "ValidationError", "valuation vector must have n = 4 entries, got 3"),
        ],
        ids=["not-the-minimum", "tied-minimum", "short-w"],
    )
    def test_anchor_errors_name_states_one_based(self, tmp_path, capsys, command, w, anchor, error, message):
        code, text = run(tmp_path, command, dict(STEINER, w=w), "--anchor", anchor)
        assert (code, text) == (2, "")
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == (error, message)

    def test_every_package_error_is_validation_or_numeric(self):
        # main maps the two families to exits 2 and 3 and catches nothing else.
        from sqlinear import errors

        classes = [value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, Exception)]
        assert len(classes) == 15
        assert all(issubclass(cls, (errors.ValidationError, errors.NumericError)) for cls in classes[1:])
        assert classes[0] is errors.SqlinearError

    def test_voronoi_endpoint_of_wrong_length(self, tmp_path, capsys):
        doc = {"A": [[1, 0], [1, 1], [1, 2], [0, 1]], "y": [3, 2, 1, -1], "segment": {"start": [1, 2], "end": [9, 4, 1, 1]}}
        code, text = run(tmp_path, "voronoi", doc)
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and "n = 4 entries" in err["message"]

    def test_bad_anchor(self, tmp_path):
        code, _ = run(tmp_path, "degenerate", STEINER, "--anchor", "9")
        assert code == 2

    def test_schema_mismatch(self, tmp_path):
        doc = dict(STEINER, schema="slm/999")
        code, _ = run(tmp_path, "mldegree", doc)
        assert code == 2
