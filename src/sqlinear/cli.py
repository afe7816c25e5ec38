"""Command line front end.

One JSON input file per job; results go to --output (or stdout) as JSON
with a "schema": "slm/1" tag, figures as SVG. Exit codes: 0 success,
2 validation problem (bad input, violated precondition, unwritable output,
an input too large for the memory at hand), 3 numeric failure (no
convergence, lost path). Errors are reported as JSON on stderr.

State indices (anchor, subsets J, DPP states) are 1-based on the command
line and in emitted JSON, matching the labeling of the input rows. Start-up
is most of a call, so ``import sqlinear.cli`` loads only :mod:`.jsonio` and
:mod:`.arrangement`; each handler imports the layers it runs when it runs.
The records of every layer derive from :class:`.arrangement.Record`, not
from dataclasses, so no command loads ``dataclasses`` (which imports
``inspect`` and ``ast``). numpy comes in only with :mod:`.mle` or a drawing,
so the exact commands, ``degenerate`` among them, run without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import jsonio
from .errors import NoConvergence, NumericError, ValidationError
from .jsonio import SCHEMA

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors become ValidationError, so they leave as JSON with exit 2."""

    def error(self, message):
        raise ValidationError(message)


# Flags a command may take, beyond --input and --output.
FLAGS = {
    "--tol": dict(type=float, default=1e-10, help="stop once Newton decrement / sqrt(sum s) is below this, in (0, 1)"),
    "--anchor": dict(type=int, help="1-based anchor state index"),
    "--eps-grid": dict(help="comma-separated decreasing eps values in (0, 1] for tracking"),
    "--samples": dict(type=int, default=20, help="sample count"),
    "--svg": dict(help="also write an SVG figure to this path"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqlinear",
        description="Likelihood geometry of squared linear statistical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="path to the JSON input")
        cmd.add_argument("--output", help="output path (default: stdout)")
        for flag in flags:
            cmd.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc = _load_input(args.input)
        handler = COMMANDS[args.command][0]
        result = handler(doc, args)
        if not isinstance(result, str):
            result["schema"] = SCHEMA
            result = jsonio.dumps(result)
        _write(args.output, result)
    except ValidationError as err:
        _emit_error("validation", err)
        return EXIT_VALIDATION
    except NumericError as err:
        _emit_error("numeric", err)
        return EXIT_NUMERIC
    except MemoryError as err:  # an input too large for the memory at hand; numpy raises a subclass
        _emit_error("validation", MemoryError(str(err) or "out of memory"))
        return EXIT_VALIDATION
    return EXIT_OK


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ValidationError(f"cannot read input: {err}") from err
    except json.JSONDecodeError as err:
        raise ValidationError(f"input is not valid JSON: {err}") from err
    except ValueError as err:  # not UTF-8, or an integer past Python's digit limit
        raise ValidationError(f"cannot read input: {err}") from err
    except RecursionError as err:
        raise ValidationError("cannot read input: arrays or objects nested too deeply") from err
    if not isinstance(doc, dict):
        raise ValidationError("input must be a JSON object")
    return doc


def _write(path, text: str):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise ValidationError(f"cannot write output: {err}") from err
    else:
        sys.stdout.write(text)


def _emit_error(kind: str, err: Exception):
    error = {"kind": kind, "type": type(err).__name__, "message": str(err)}
    if getattr(err, "failures", None):
        # A NaN or infinite Newton decrement in a trace is null: JSON has no token for either.
        error["failures"] = [
            {"region": str(r.sign), "type": type(e).__name__, "message": str(e),
             "trace": [(i, lam if math.isfinite(lam) else None) for i, lam in e.trace]}
            for r, e in err.failures
        ]
    sys.stderr.write(json.dumps({"schema": SCHEMA, "error": error}) + "\n")


def _need(doc, key):
    if key not in doc:
        raise ValidationError(f"this command needs key {key!r} in the input")
    return doc[key]


def _anchor_index(args, n) -> int:
    if args.anchor is None:
        raise ValidationError("this command needs --anchor (1-based state index)")
    if not 1 <= args.anchor <= n:
        raise ValidationError(f"--anchor must be in 1..{n}")
    return args.anchor - 1


def _eps_grid(args):
    from .degeneration import DEFAULT_EPS_GRID

    if args.eps_grid is None:
        return DEFAULT_EPS_GRID
    try:
        values = tuple(float(v) for v in args.eps_grid.split(","))
    except ValueError as err:
        raise ValidationError(f"bad --eps-grid: {err}") from err
    return values


def _tol(args) -> float:
    if args.tol <= 0:
        raise ValidationError("--tol must be positive")
    return args.tol


def _data(model, doc, args):
    """The input's "s" and --tol for `mle` and `plot`, checked before numpy loads."""
    tol = _tol(args)
    s = jsonio.parse_vector(_need(doc, "s"), "s")
    if len(s) != model.n:
        raise ValidationError(f"data vector must have n = {model.n} entries, got shape ({len(s)},)")
    return s, tol


def _solve(model, s, tol):
    """Critical points; a failed region fails the command listing every failure."""
    from .mle import solve_all

    result = solve_all(model, s, tol)
    if result.failures:
        tags = ", ".join(str(region.sign) for region, _ in result.failures)
        raise NoConvergence(f"regions failed to converge: {tags}", failures=result.failures)
    return result


def _track(model, doc, args):
    """Valuation estimates tracked for the input's "w" at --anchor, shared by
    `tropical` and `plot`; returns (TropicalData, estimates)."""
    from .degeneration import TropicalData, _check_length, estimate_valuations

    w = jsonio.parse_vector(_need(doc, "w"), "w")
    _check_length(model, w)  # before TropicalData names the minimum of a w of the wrong length
    trop = TropicalData(w=w, anchor=_anchor_index(args, model.n))
    return trop, estimate_valuations(model, trop, eps_grid=_eps_grid(args))


def _tracking_overlays(model, trop, estimates):
    """Each region's tracked arc, its witness then the solver's points, and
    the exact closed-form limits; plotting turns both into floats."""
    from .degeneration import unit_data_solutions
    from .model import parameters_of

    return {
        "arcs": [[est.region, *est.x_track] for est in estimates],
        "limit_points": parameters_of(model, [sol.y for sol in unit_data_solutions(model, trop.anchor) if sol.y]),
    }


def _check_figure(arr, wanted):
    """Plotting's dimension check, made before any work goes into a figure."""
    if wanted:
        from .plotting import _check_dimension
        _check_dimension(arr.d)


def _cmd_regions(doc, args):
    from .arrangement import enumerate_regions

    arr = jsonio.arrangement_from_json(doc)
    _check_figure(arr, args.svg)
    regions = enumerate_regions(arr)
    out = {
        "regions": [
            {"sign": str(r.sign), "witness": jsonio.rationals_to_json(r.witness)}
            for r in regions
        ],
        "count": len(regions),
    }
    if args.svg:
        from .plotting import plot_arrangement
        _write(args.svg, plot_arrangement(arr, region_labels=[(r, str(r.sign)) for r in regions]))
    return out


def _cmd_charpoly(doc, args):
    from .arrangement import characteristic_polynomial

    chi = characteristic_polynomial(jsonio.arrangement_from_json(doc))
    return {"char_poly": list(chi.coeffs)}


def _cmd_mldegree(doc, args):
    from .arrangement import characteristic_polynomial

    chi = characteristic_polynomial(jsonio.arrangement_from_json(doc))
    return {"ml_degree": chi.ml_degree(), "char_poly": list(chi.coeffs)}


def _cmd_mle(doc, args):
    model = jsonio.model_from_json(doc)
    _check_figure(model.arr, args.svg)
    result = _solve(model, *_data(model, doc, args))
    out = {
        "critical_points": [jsonio.critical_point_to_json(p) for p in result.points],
        "mle_index": result.mle_index,
        "ml_degree": len(result.points),
    }
    if args.svg:
        from .plotting import plot_arrangement
        _write(args.svg, plot_arrangement(model.arr, critical_points=[p.x for p in result.points]))
    return out


def _cmd_degenerate(doc, args):
    from .degeneration import unit_data_solutions

    model = jsonio.model_from_json(doc)
    anchor = _anchor_index(args, model.n)
    solutions = unit_data_solutions(model, anchor)
    return {
        "anchor": anchor + 1,
        "solutions": [
            {
                "J": [j + 1 for j in sol.J],
                "y": jsonio.rationals_to_json(sol.y) if sol.y else None,
                "generic": sol.generic_flag,
                **({"error": sol.error} if sol.error else {}),
            }
            for sol in solutions
        ],
    }


def _cmd_tropical(doc, args):
    from .degeneration import tropical_predictions

    model = jsonio.model_from_json(doc)
    _check_figure(model.arr, args.svg)
    trop, estimates = _track(model, doc, args)
    predictions = tropical_predictions(model, trop)
    out = {
        "w": jsonio.rationals_to_json(trop.w),
        "anchor": trop.anchor + 1,
        "predictions": [
            {"J": [j + 1 for j in p.J], "z": jsonio.rationals_to_json(p.z)}
            for p in predictions
        ],
        "estimates": [
            {
                "region": str(e.region.sign),
                "z_hat": jsonio.rationals_to_json(e.point.z),
                "slopes": list(e.slopes),
                "residual": e.residual,
            }
            for e in estimates
        ],
    }
    if args.svg:
        from .plotting import plot_arrangement
        _write(args.svg, plot_arrangement(model.arr, **_tracking_overlays(model, trop, estimates)))
    return out


def _cmd_lognormal(doc, args):
    from .geometry import lognormal_polytope, swap_candidates

    model = jsonio.model_from_json(doc)
    y = jsonio.parse_vector(_need(doc, "y"), "y")
    poly = lognormal_polytope(model, y)
    swaps = swap_candidates(model, y)
    return {
        "y": jsonio.rationals_to_json(y),
        "polytope": jsonio.polytope_to_json(poly),
        "dual_f_vector": list(poly.f_vector[::-1]),
        "swap_candidates": [
            {
                "i": c.i + 1,
                "j": c.j + 1,
                "sigma": "".join("+" if v > 0 else "-" for v in c.sigma),
                "image": jsonio.rationals_to_json(c.image),
            }
            for c in swaps
        ],
    }


def _cmd_chamber(doc, args):
    from .geometry import chamber_arrangement

    model = jsonio.model_from_json(doc)
    chamber = chamber_arrangement(model)
    return {
        "count": chamber.arrangement.n,
        "forms": jsonio.matrix_to_json(chamber.arrangement.A),
        "labels": list(chamber.arrangement.labels),
        "duplicates": [
            {"kept": kept, "dropped": list(dropped)}
            for kept, dropped in chamber.duplicates
        ],
    }


def _cmd_voronoi(doc, args):
    from .geometry import log_voronoi_scan

    model = jsonio.model_from_json(doc)
    y = jsonio.parse_vector(_need(doc, "y"), "y")
    segment = _need(doc, "segment")
    if not isinstance(segment, dict) or "start" not in segment or "end" not in segment:
        raise ValidationError("segment must be an object with 'start' and 'end'")
    start = jsonio.parse_vector(segment["start"], "segment.start")
    end = jsonio.parse_vector(segment["end"], "segment.end")
    profile = log_voronoi_scan(model, y, start, end, steps=args.samples, tol=_tol(args))
    return {
        "profile": [
            {"t": t, "region": tag}
            for t, tag in zip(profile.parameters, profile.tags)
        ],
        "crossings": [
            {"t": t, "from": before, "to": after}
            for t, before, after in profile.crossings
        ],
    }


def _cmd_dpp(doc, args):
    from .arrangement import ml_degree
    from .dpp import dpp_ml_degree_l2, dpp_probabilities, linear_projection_arrangement

    dpp = jsonio.dpp_from_json(doc)
    disc = linear_projection_arrangement(dpp)
    out = {
        "states": [[i + 1 for i in sigma] for sigma in dpp.states],
        "hyperplanes": jsonio.matrix_to_json(disc.arrangement.A),
        "ml_degree": ml_degree(disc.arrangement),
    }
    if dpp.n - dpp.k == 2:
        out["ml_degree_formula"] = dpp_ml_degree_l2(dpp.n)
    if "Theta" in doc:
        theta = jsonio.parse_matrix(doc["Theta"], "Theta")
        if (len(theta), len(theta[0])) != (dpp.k, dpp.n):
            raise ValidationError(
                f"Theta must be k x n = {dpp.k} x {dpp.n}, got {len(theta)} x {len(theta[0])}"
            )
        dist = dpp_probabilities(theta)
        out["distribution"] = [
            {"sigma": [i + 1 for i in sigma], "prob": p}
            for sigma, p in zip(dist.states, dist.probs.tolist())
        ]
    return out


def _cmd_ideal(doc, args):
    from .model import minor_space_dimension, veronese_generators

    model = jsonio.model_from_json(doc)
    gens = veronese_generators(model)
    return {
        "n_linear_forms": len(gens.linear_forms),
        "linear_forms": [jsonio.rationals_to_json(f) for f in gens.linear_forms],
        "R": [
            [jsonio.rationals_to_json(entry) for entry in row]
            for row in gens.R
        ],
        "monomials": [[i + 1, j + 1] for i, j in gens.monomials],
        "minor_space_dim": minor_space_dimension(model.d),
    }


def _cmd_singular(doc, args):
    from .model import singular_subspaces

    model = jsonio.model_from_json(doc)
    subspaces = singular_subspaces(model)
    return {
        "count": len(subspaces),
        "subspaces": [
            {
                "I": [i + 1 for i in sorted(sub.I)],
                "J": [j + 1 for j in sorted(sub.J)],
                "projective_dimension": sub.projective_dimension,
                "basis": [jsonio.rationals_to_json(v) for v in sub.basis],
            }
            for sub in subspaces
        ],
    }


def _cmd_plot(doc, args):
    from .model import make_model
    from .plotting import _check_dimension, plot_arrangement

    # Only "s", --anchor and a "y" that draws the fiber (n = 3) need the
    # model: the bare figure is the arrangement's, n = d too.
    arr = jsonio.arrangement_from_json(doc)
    fiber = "y" in doc and arr.n == 3
    model = make_model(arr) if "s" in doc or fiber or args.anchor is not None else None
    _check_dimension(arr.d)
    data = _data(model, doc, args) if "s" in doc else None
    overlays = _tracking_overlays(model, *_track(model, doc, args)) if args.anchor is not None else {}
    if data is not None:
        overlays["critical_points"] = [p.x for p in _solve(model, *data).points]
    if fiber:
        from .geometry import lognormal_polytope
        overlays["lognormal"] = lognormal_polytope(model, jsonio.parse_vector(doc["y"], "y"))
    return plot_arrangement(arr, **overlays)


# command -> (handler, help text, flags it reads)
COMMANDS = {
    "regions": (_cmd_regions, "enumerate regions with witnesses", ("--svg",)),
    "charpoly": (_cmd_charpoly, "characteristic polynomial of the arrangement", ()),
    "mldegree": (_cmd_mldegree, "ML degree and characteristic polynomial", ()),
    "mle": (_cmd_mle, "critical points and the MLE for the data in the input", ("--tol", "--svg")),
    "degenerate": (_cmd_degenerate, "closed-form critical points at a unit data vector", ("--anchor",)),
    "tropical": (
        _cmd_tropical,
        "tropical predictions and path-tracked valuations",
        ("--anchor", "--eps-grid", "--svg"),
    ),
    "lognormal": (_cmd_lognormal, "log-normal polytope and its dual at the input point", ()),
    "chamber": (_cmd_chamber, "chamber arrangement of the model", ()),
    "voronoi": (_cmd_voronoi, "log-Voronoi membership scan along a data segment", ("--tol", "--samples")),
    "dpp": (_cmd_dpp, "linear projection DPP: arrangement and ML degree", ()),
    "ideal": (_cmd_ideal, "implicit generators (linear forms and quadric matrix)", ()),
    "singular": (_cmd_singular, "singular subspaces of the model", ()),
    "plot": (_cmd_plot, "SVG figure of the arrangement with overlays", ("--tol", "--anchor", "--eps-grid")),
}


if __name__ == "__main__":
    sys.exit(main())
