"""Outside-in tracer: per-module counts and self times, no edits to ``src/``.

The package imports its helpers by name (``from .simplex import
feasible_point``), so wrapping a function in its defining module is not
enough: every ``sqlinear.*`` module global (and the package namespace) that
holds the original function object is rebound to the wrapper, and put back
by :meth:`Tracer.restore`. ``SquaredLinearModel.A_float``, a property that
rebuilds a float array on every access, is swapped for a counting property.

Spans are aggregated as they close instead of being stored one by one:
``ratlin`` helpers run ~1e5 times per job. All work is on one thread, so the
open spans form a stack; a span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "simplex",
    "arrangement",
    "ratlin",
    "model",
    "mle",
    "degeneration",
    "geometry",
    "dpp",
    "jsonio",
    "plotting",
    "cli",
)

ELIMINATION = ("rref", "rank", "nullspace", "solve", "det")
MODEL_EVAL = ("gradient", "hessian", "log_likelihood", "evaluate")
JSON_PARSE = (
    "parse_rational",
    "parse_vector",
    "parse_matrix",
    "check_schema",
    "arrangement_from_json",
    "model_from_json",
    "dpp_from_json",
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0


class Tracer:
    def __init__(self, package: str = "sqlinear", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.stats = {}  # (layer, function name) -> Stat
        self.counters = {
            "lp_feasible": 0,
            "lp_rows": 0,
            "regions_out": 0,
            "newton_iters": 0,
            "voronoi_solve_all": 0,
            "A_float_builds": 0,
        }
        self._open = []  # child-time accumulators of the open spans
        self._voronoi_depth = 0
        self._rebound = []  # (namespace, attribute, original)
        self._property = None
        self._after = self._hooks()  # (layer, name) -> fn(args, result)

    # -- installing and restoring -------------------------------------------

    def public_functions(self):
        """(layer, name, function) for every public function a layer defines."""
        found = []
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found.append((layer, name, obj))
        return found

    def install(self):
        if self._rebound or self._property:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, name, fn in self.public_functions():
            wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == self.package or module_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])
        model_cls = getattr(sys.modules.get(f"{self.package}.model"), "SquaredLinearModel", None)
        if model_cls is not None:
            original = model_cls.__dict__["A_float"]
            counters = self.counters

            def counted(instance):
                counters["A_float_builds"] += 1
                return original.fget(instance)

            model_cls.A_float = property(counted, doc=original.__doc__)
            self._property = (model_cls, original)
        return self

    def restore(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound = []
        if self._property is not None:
            cls, original = self._property
            cls.A_float = original
            self._property = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        opened = self._open
        after = self._after.get((layer, name))
        is_voronoi = (layer, name) == ("geometry", "log_voronoi_scan")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            if is_voronoi:
                self._voronoi_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = opened.pop()
                if opened:
                    opened[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if is_voronoi:
                    self._voronoi_depth -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self):
        c = self.counters

        def lp(args, result):
            c["lp_rows"] += len(args[0])
            if result is not None:
                c["lp_feasible"] += 1

        def regions(args, result):
            c["regions_out"] += len(result)

        def region_solve(args, result):
            c["newton_iters"] += result.iterations

        def solve_all(args, result):
            if self._voronoi_depth:
                c["voronoi_solve_all"] += 1

        return {
            ("simplex", "feasible_point"): lp,
            ("arrangement", "enumerate_regions"): regions,
            ("mle", "solve_region"): region_solve,
            ("mle", "solve_all"): solve_all,
        }

    # -- report --------------------------------------------------------------

    def work_counts(self) -> dict:
        """Running totals of the main work counts, for per-job differences."""
        return {
            "lp_calls": self._get("simplex", "feasible_point").calls,
            "newton_iters": self.counters["newton_iters"],
            "A_float_builds": self.counters["A_float_builds"],
            "elim_calls": self._sum("ratlin", ELIMINATION, "calls"),
        }

    def _get(self, layer, name):
        return self.stats.get((layer, name)) or Stat()

    def _sum(self, layer, names, field):
        return sum(getattr(self._get(layer, n), field) for n in names)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        ``*_self_s`` metrics and the sums over function groups (``elim_s``,
        ``eval_s``, ``parse_s``) are self times; a time named after one
        function (``typescan_s``) is the inclusive time of its spans.
        """
        c = self.counters
        lp = self._get("simplex", "feasible_point")
        region = self._get("mle", "solve_region")
        solved = region.calls - region.raised

        def inclusive(layer, *names):
            return (self._sum(layer, names, "total"), "s")

        out = {
            "simplex.lp_calls": (lp.calls, "count"),
            "simplex.lp_s": inclusive("simplex", "feasible_point"),
            "simplex.lp_feasible_ratio": (c["lp_feasible"] / lp.calls if lp.calls else 0.0, "ratio"),
            "simplex.lp_rows_mean": (c["lp_rows"] / lp.calls if lp.calls else 0.0, "rows"),
            "arrangement.enumerate_calls": (self._get("arrangement", "enumerate_regions").calls, "count"),
            "arrangement.regions_out": (c["regions_out"], "count"),
            "arrangement.enumerate_self_s": (self._get("arrangement", "enumerate_regions").self_time, "s"),
            "arrangement.charpoly_s": inclusive("arrangement", "characteristic_polynomial"),
            "ratlin.elim_calls": (self._sum("ratlin", ELIMINATION, "calls"), "count"),
            "ratlin.elim_s": (self._sum("ratlin", ELIMINATION, "self_time"), "s"),
            "model.gradient_calls": (self._get("model", "gradient").calls, "count"),
            "model.hessian_calls": (self._get("model", "hessian").calls, "count"),
            "model.loglik_calls": (self._get("model", "log_likelihood").calls, "count"),
            "model.eval_s": (self._sum("model", MODEL_EVAL, "self_time"), "s"),
            "model.A_float_builds": (c["A_float_builds"], "count"),
            "mle.solve_all_calls": (self._get("mle", "solve_all").calls, "count"),
            "mle.solve_region_calls": (region.calls, "count"),
            "mle.newton_iters": (c["newton_iters"], "count"),
            "mle.iters_per_solve": (c["newton_iters"] / solved if solved else 0.0, "count"),
            "mle.solve_region_self_s": (region.self_time, "s"),
            "mle.region_failures": (region.raised, "count"),
            "degeneration.track_s": inclusive("degeneration", "estimate_valuations"),
            "degeneration.unit_solutions_s": inclusive("degeneration", "unit_data_solutions"),
            "geometry.polytope_s": inclusive("geometry", "lognormal_polytope", "dual_polytope"),
            "geometry.typescan_s": inclusive("geometry", "combinatorial_type_scan"),
            "geometry.voronoi_s": inclusive("geometry", "log_voronoi_scan"),
            "geometry.voronoi_solve_all_calls": (c["voronoi_solve_all"], "count"),
            "dpp.arrangement_s": inclusive("dpp", "linear_projection_arrangement"),
            "jsonio.parse_s": (self._sum("jsonio", JSON_PARSE, "self_time"), "s"),
            "jsonio.dumps_s": inclusive("jsonio", "dumps"),
            "plotting.svg_s": inclusive("plotting", "plot_arrangement"),
            "cli.main_s": inclusive("cli", "main"),
        }
        for layer in self.layers:
            spent = sum(s.self_time for (lay, _), s in self.stats.items() if lay == layer)
            out[f"{layer}.self_s"] = (spent, "s")
        return out
