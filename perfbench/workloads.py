"""The four benchmark workloads.

A workload turns a seed into a list of cycles, each cycle a list of jobs.
A job's ``run`` is the timed library (or CLI) work. Afterwards, untimed,
``check`` tests invariants that need no reference, and ``observe`` reduces
the result to an observation; ``compare`` matches it against the one that
``make_reference.py`` recorded in ``reference.json`` for the same input, on
the library as it stood when the benchmark was added. A fast but wrong
change therefore counts as a failed job.

Inputs come from fixed pools, so that every input has a recorded reference;
the seed picks which pool members a run uses and in which order. No pool
member repeats within a run.

All library calls go through module attributes (``_arr.enumerate_regions``)
so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from sqlinear import arrangement as _arr
from sqlinear import catalog as _cat
from sqlinear import degeneration as _deg
from sqlinear import dpp as _dpp
from sqlinear import geometry as _geo
from sqlinear import jsonio as _json
from sqlinear import mle as _mle
from sqlinear import model as _model
from sqlinear import ratlin as _ratlin
from sqlinear.errors import ValidationError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

X_TOL = 1e-6  # MLE coordinates; the solver stops at gradient norm 1e-10
T_TOL = 1e-6  # Voronoi crossing parameters (bisection to 1e-4 is deterministic)
FLOAT_TOL = 1e-6  # float fields of numeric CLI output
SVG_TOL = 0.05  # SVG pixel coordinates, printed with 4 decimals
RANK_TOL = 1e-8


def _equal(observed, expected):
    return [] if observed == expected else [f"{observed!r} differs from reference {expected!r}"]


@dataclass
class Job:
    name: str  # label used in reports
    key: str | None  # reference key; None when the result has no recorded reference
    run: object  # () -> result; the timed part
    check: object  # result -> list of problems, from invariants alone
    observe: object = None  # result -> JSON-able observation
    compare: object = _equal  # (observation, reference) -> list of problems
    known_defect: str | None = None
    parts: tuple = ()  # for a bundle: the jobs it is made of


def bundle(name, jobs):
    """One job made of ``jobs``, run and checked in order (see run.run_job)."""
    return Job(name=name, key=None, run=None, check=None, parts=tuple(jobs))


def load_reference() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _order(seed, label, items):
    """Seeded permutation of a pool, independent per pool."""
    items = list(items)
    random.Random(f"{seed}/{label}").shuffle(items)
    return items


# -- exact-regions -----------------------------------------------------------

SHAPES = ((3, 8), (4, 9), (5, 9), (3, 12))
EXACT_POOL = 32
DPP_N, DPP_K, DPP_REGIONS = 5, 3, 31


def _chi_at(chi, t):
    value = 0
    for c in chi.coeffs:
        value = value * t + c
    return value


def _check_regions(arr, regions, chi, mu, expected_count):
    problems = []
    count = len(regions)
    half = abs(_chi_at(chi, -1)) // 2
    if not count == mu == half == expected_count:
        problems.append(f"{count} regions, ml_degree {mu}, |chi(-1)|/2 {half}, expected {expected_count}")
    seen = set()
    for region in regions:
        signs = region.sign.signs
        if signs in seen or signs[0] != 1:
            problems.append(f"duplicate or non-canonical sign vector {region.sign}")
        seen.add(signs)
        w = region.witness
        if not all(isinstance(v, Fraction) for v in w) or max(abs(v) for v in w) != 1:
            problems.append(f"witness of {region.sign} is not exact with max|coord| = 1")
            continue
        for s, row in zip(signs, arr.A):
            value = sum(a * b for a, b in zip(row, w))
            if value == 0 or (value > 0) != (s > 0):
                problems.append(f"witness of {region.sign} has the wrong sign")
                break
    return problems


def _exact_job(shape, index):
    """Job for pool member ``index`` of ``shape`` ("5x9" or "dpp5").

    The input (rejection-sampled arrangement or DPP) is built here, in
    set-up; the job times the DPP reduction, enumeration, chi and ML degree.
    """
    if shape.startswith("dpp"):
        rng = random.Random(f"exact-regions/{shape}/{index}")
        while True:  # rejection-sample fixed rows whose arrangement is simple
            theta = tuple(tuple(rng.randint(-9, 9) for _ in range(DPP_N)) for _ in range(DPP_K - 1))
            try:
                dpp = _dpp.DPPModel(Theta_fixed=theta, k=DPP_K, n=DPP_N)
                rows = _dpp.linear_projection_arrangement(dpp).arrangement.A
            except ValidationError:
                continue
            if len({_ratlin.primitive(row) for row in rows}) == len(rows):
                break
        build = lambda: _dpp.linear_projection_arrangement(dpp).arrangement  # noqa: E731
        expected = DPP_REGIONS
    else:
        d, n = (int(v) for v in shape.split("x"))
        arr = _cat.random_arrangement(d, n, random.Random(f"exact-regions/{shape}/{index}"))
        build = lambda: arr  # noqa: E731
        expected = sum(comb(n - 1, i) for i in range(d))

    def run():
        a = build()
        return a, _arr.enumerate_regions(a), _arr.characteristic_polynomial(a), _arr.ml_degree(a)

    def observe(result):
        signs = sorted(str(r.sign) for r in result[1])
        return {"count": len(signs), "digest": digest("\n".join(signs))}

    return Job(
        name=shape,
        key=f"exact-regions/{shape}#{index}",
        run=run,
        check=lambda result: _check_regions(*result, expected),
        observe=observe,
    )


EXACT_SHAPES = tuple(f"{d}x{n}" for d, n in SHAPES) + (f"dpp{DPP_N}",)


def setup_exact(seed, cycles):
    """A cycle is one job that enumerates a fresh arrangement of each shape.

    The shapes' costs differ 10-fold (0.2 s for a (3,8), 2.4 s for a
    (3,12)), so with per-arrangement jobs the median and the tail of a run's
    15 or so jobs would fall on whichever shape sits at their rank, and
    move with the seed's pick of arrangements. The traced run times the
    parts one by one.
    """
    orders = {shape: _order(seed, shape, range(EXACT_POOL))[:cycles] for shape in EXACT_SHAPES}
    return [
        [bundle("five-shapes", [_exact_job(shape, orders[shape][c]) for shape in EXACT_SHAPES])]
        for c in range(cycles)
    ]


# -- numeric-mle -------------------------------------------------------------

MLE_S_POOL = 160


def _mle_models():
    """braid(5) and one seeded generic (4,9), the same in every run; the seed
    picks the data vectors. Regions are enumerated here, in set-up."""
    models = {
        "braid5": _model.make_model(_cat.braid_arrangement(5)),
        "4x9#0": _model.make_model(_cat.random_arrangement(4, 9, random.Random("numeric-mle/4x9/0"))),
    }
    return {key: (model, _arr.enumerate_regions(model.arr)) for key, model in models.items()}


def _check_mle(model, regions, result):
    """Region failures are allowed (they are counted by the tracer), but
    every region must be accounted for exactly once."""
    solved, defect = result
    problems = []
    points = solved.points
    failed = {region.sign for region, _ in solved.failures}
    if len(points) + len(failed) != len(regions):
        problems.append(f"{len(points)} points + {len(failed)} failures for {len(regions)} regions")
    if [p.region for p in points] != [r.sign for r in regions if r.sign not in failed]:
        problems.append("critical points are not one per region in canonical order")
    A = np.array(model.arr.A, dtype=float)
    for p in points:
        values = A @ p.x
        if np.any(values == 0) or tuple(int(v) for v in np.sign(values) * np.sign(values[0])) != p.region.signs:
            problems.append(f"critical point of {p.region} lies outside its region")
            break
    if any(not p.hessian_max_eig < 0 for p in points):
        problems.append("a critical point is not a strict local maximum")
    if points and points[solved.mle_index].logL != max(p.logL for p in points):
        problems.append("mle_index is not the argmax of logL")
    if defect < 1:
        problems.append(f"likelihood matrix at the MLE has rank defect {defect}")
    return problems


def _observe_mle(result):
    solved, _ = result
    return {"mle_region": str(solved.mle.region), "x": [float(v) for v in solved.mle.x]}


def _compare_mle(observed, expected):
    if observed["mle_region"] != expected["mle_region"]:
        return [f"MLE in region {observed['mle_region']}, reference {expected['mle_region']}"]
    gap = max(abs(a - b) for a, b in zip(observed["x"], expected["x"]))
    return [] if gap <= X_TOL else [f"MLE x differs from reference by {gap:.2e}"]


def _mle_job(model_key, model, regions, index):
    rng = random.Random(f"numeric-mle/{model_key}/s/{index}")
    s = np.array([float(rng.randint(1, 50)) for _ in range(model.n)])

    def run():
        solved = _mle.solve_all(model, s, regions=regions)
        matrix = _mle.likelihood_matrix(model, s, solved.mle.x)
        return solved, _mle.rank_defect(matrix, RANK_TOL)

    return Job(
        name=model_key.split("#")[0],
        key=f"numeric-mle/{model_key}/s{index}",
        run=run,
        check=lambda result: _check_mle(model, regions, result),
        observe=_observe_mle,
        compare=_compare_mle,
    )


def setup_mle(seed, cycles):
    """Each cycle solves two braid(5) jobs and one (4,9) job, so the median
    job is a braid(5) solve and the tail a (4,9) solve."""
    models = _mle_models()
    picks = {key: _order(seed, key, range(MLE_S_POOL)) for key in models}
    jobs = {key: [_mle_job(key, *models[key], j) for j in picks[key][: 2 * cycles]] for key in models}
    braid, generic = jobs["braid5"], jobs["4x9#0"]
    return [[braid[2 * c], generic[c], braid[2 * c + 1]] for c in range(cycles)]


def mle_pool_jobs():
    return [_mle_job(key, model, regions, j) for key, (model, regions) in _mle_models().items() for j in range(MLE_S_POOL)]


# -- session -----------------------------------------------------------------

SESSION_POOL = 16
VORONOI_STEPS = 12
BRAID4_GRID = tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))
QUAD_Y = (3, 2, 1, -1)
QUAD_CROSSING = 100 / 117  # s_1(t) = s_3(t) on the Example 6.5 segment


def four_points_segment():
    """Example 6.5: from s* toward a point on the edge between two vertices."""
    total = sum(v * v for v in QUAD_Y)
    s_star = tuple(Fraction(v * v, total) for v in QUAD_Y)
    va = (Fraction(0), Fraction(0), Fraction(2, 5), Fraction(3, 5))
    vb = (Fraction(0), Fraction(4, 5), Fraction(0), Fraction(1, 5))
    target = tuple(Fraction(2, 5) * a + Fraction(3, 5) * b for a, b in zip(va, vb))
    end = tuple(s + Fraction(9, 10) * (t - s) for s, t in zip(s_star, target))
    return s_star, end


def _kernel_points(model, rng, count):
    """Exact y = A x with no zero coordinate and off every chamber wall."""
    walls = _geo.chamber_forms(model)
    points = []
    while len(points) < count:
        x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(model.d))
        y = model.arr.form_values(x)
        if any(v == 0 for v in y) or any(sum(a * b for a, b in zip(w.normal, x)) == 0 for w in walls):
            continue
        points.append(y)
    return points


def _observe_profile(profile):
    return {
        "tags": list(profile.tags),
        "crossings": [[before, after] for _, before, after in profile.crossings],
        "t": [float(t) for t, _, _ in profile.crossings],
    }


def _check_profile(profile):
    switches = [(a, b) for a, b in zip(profile.tags, profile.tags[1:]) if a != b]
    if switches != [(before, after) for _, before, after in profile.crossings]:
        return [f"crossings {profile.crossings} do not match the tag switches {switches}"]
    return []


def _compare_profile(observed, expected):
    if observed["tags"] != expected["tags"] or observed["crossings"] != expected["crossings"]:
        return [f"Voronoi tags/crossings {observed['crossings']} differ from reference {expected['crossings']}"]
    if any(abs(a - b) > T_TOL for a, b in zip(observed["t"], expected["t"])):
        return [f"crossing parameters {observed['t']} differ from reference {expected['t']}"]
    return []


def _tropical_job(name, model, trop, grid):
    predictions = {p.J: p.z for p in _deg.tropical_predictions(model, trop, check_generic=False)}
    generic = sorted(sol.J for sol in _deg.unit_data_solutions(model, trop.anchor) if sol.generic_flag)

    def run():
        if grid is None:
            return _deg.estimate_valuations(model, trop)
        return _deg.estimate_valuations(model, trop, eps_grid=grid)

    def check(estimates):
        problems = []
        realized = sorted(e.point.J for e in estimates if e.point.J in generic)
        if realized != generic:
            problems.append(f"generic supports tracked {realized}, expected {generic}")
        for e in estimates:
            if e.point.J in generic and e.point.z != predictions[e.point.J]:
                problems.append(f"tracked valuation for J={e.point.J} differs from tropical_predictions")
        return problems

    return Job(name=name, key=None, run=run, check=check)


def _session_fixed_jobs():
    steiner = _model.make_model(_cat.steiner_arrangement())
    braid4 = _model.make_model(_cat.braid_arrangement(4))
    four = _model.make_model(_cat.four_points_arrangement())
    six = _model.make_model(_cat.six_points_arrangement())
    s_star, end = four_points_segment()

    def quad_check(profile):
        if len(profile.crossings) != 1 or abs(profile.crossings[0][0] - QUAD_CROSSING) > 1 / VORONOI_STEPS:
            return [f"crossings {profile.crossings} miss t = 100/117"]
        return _check_profile(profile)

    def typescan_observe(report):
        return digest(json.dumps({k: [list(v[0]), list(v[1])] for k, v in sorted(report.items())}))

    head = [
        _tropical_job("tropical-steiner", steiner, _deg.TropicalData(w=(0, 3, 4, 5), anchor=0), None),
        _tropical_job("tropical-braid4", braid4, _deg.TropicalData(w=(0, 1, 2, 3, 4, 5), anchor=0), BRAID4_GRID),
        Job(
            "voronoi-four-points",
            "session/voronoi-four-points",
            lambda: _geo.log_voronoi_scan(four, QUAD_Y, s_star, end, steps=VORONOI_STEPS),
            quad_check,
            _observe_profile,
            _compare_profile,
        ),
    ]
    tail = Job(
        "typescan-six-points",
        "session/typescan-six-points",
        lambda: _geo.combinatorial_type_scan(six),
        lambda report: [] if len(report) == 12 else [f"{len(report)} chamber regions, expected 12"],
        typescan_observe,
    )
    return head, tail


def _session_member_jobs(index):
    """A seeded (3,6) model with two kernel points; its Voronoi segment runs
    from s* a quarter of the way to the boundary along a row of B diag(y)."""
    rng = random.Random(f"session/3x6/{index}")
    model = _model.make_model(_cat.random_arrangement(3, 6, rng))
    ys = _kernel_points(model, rng, 2)
    y = ys[0]
    total = sum(v * v for v in y)
    start = tuple(v * v / total for v in y)
    row = [b * v for b, v in zip(model.B.B[index % len(model.B.B)], y)]
    t_max = min(s / -r for s, r in zip(start, row) if r < 0)
    end = tuple(s + Fraction(1, 4) * t_max * r for s, r in zip(start, row))
    key = f"session/3x6#{index}"

    def unit_check(solutions):
        for sol in solutions:
            if sol.y and (
                any(sum(b * v for b, v in zip(brow, sol.y)) != 0 for brow in model.B.B)
                or any(sol.y[j] != 0 for j in sol.J)
            ):
                return [f"degenerate solution for J={sol.J} is not an exact kernel point"]
        return []

    def unit_observe(solutions):
        lines = [f"{sol.J}|{','.join(str(v) for v in sol.y)}|{sol.generic_flag}" for sol in solutions]
        return digest("\n".join(lines))

    def polytope_check(pairs):
        return [
            f"f-vector {pi.f_vector} is not the reversed dual f-vector {q.f_vector}"
            for pi, q in pairs
            if pi.f_vector != tuple(reversed(q.f_vector))
        ]

    return [
        Job(
            "voronoi-3x6",
            key + "/voronoi",
            lambda: _geo.log_voronoi_scan(model, y, start, end, steps=VORONOI_STEPS),
            _check_profile,
            _observe_profile,
            _compare_profile,
        ),
        Job("unit-data-3x6", key + "/unit", lambda: _deg.unit_data_solutions(model, 0), unit_check, unit_observe),
        Job(
            "polytopes-3x6",
            key + "/polytopes",
            lambda: [(_geo.lognormal_polytope(model, v), _geo.dual_polytope(model, v)) for v in ys],
            polytope_check,
            lambda pairs: [[list(pi.f_vector), list(q.f_vector)] for pi, q in pairs],
        ),
    ]


def setup_session(seed, cycles):
    """A cycle is one job: the script's seven calls. The calls' costs differ
    100-fold, so per-call jobs would put the median and the tail of a run's
    few dozen jobs on whichever call sits at their rank. The traced run
    times the calls one by one."""
    head, tail = _session_fixed_jobs()
    order = _order(seed, "3x6", range(SESSION_POOL))[:cycles]
    return [[bundle("session", head + _session_member_jobs(index) + [tail])] for index in order]


# -- cli ---------------------------------------------------------------------

EXACT_COMMANDS = frozenset(
    {"regions", "charpoly", "mldegree", "degenerate", "lognormal", "chamber", "dpp", "ideal", "singular"}
)
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def cli_cases():
    """(label, command, input document, extra arguments, known defect)."""
    steiner = _json.arrangement_to_json(_cat.steiner_arrangement())
    four = _json.arrangement_to_json(_cat.four_points_arrangement())
    six = _json.arrangement_to_json(_cat.six_points_arrangement())
    seven = _json.arrangement_to_json(_cat.seven_lines_arrangement())
    s_star, end = four_points_segment()
    segment = {"start": _json.rationals_to_json(s_star), "end": _json.rationals_to_json(end)}
    dpp = {"Theta_fixed": [[1, 2, 3, 4, 5], [2, -1, 4, 1, -3]], "k": 3, "n": 5}
    s = [4, 3, 2, 1]
    return [
        ("regions", "regions", steiner, [], None),
        ("charpoly", "charpoly", steiner, [], None),
        ("mldegree", "mldegree", steiner, [], None),
        ("mle", "mle", dict(steiner, s=s), [], None),
        ("degenerate", "degenerate", steiner, ["--anchor", "1"], None),
        ("tropical", "tropical", dict(steiner, w=[0, 3, 4, 5]), ["--anchor", "1"], None),
        ("lognormal", "lognormal", dict(steiner, y=[1, 2, 3, 6]), [], None),
        ("chamber", "chamber", six, [], None),
        ("voronoi", "voronoi", dict(four, y=list(QUAD_Y), segment=segment), ["--samples", "8"], None),
        ("dpp", "dpp", dpp, [], None),
        ("ideal", "ideal", seven, [], None),
        ("singular", "singular", six, [], None),
        ("plot", "plot", dict(steiner, s=s, w=[0, 3, 4, 5]), ["--anchor", "1"], None),
        ("bad-parallel-rows", "regions", {"A": [[1, 0], [2, 0], [0, 1]]}, [], None),
        ("bad-mle-length", "mle", dict(steiner, s=[1, 2, 3]), [], "mle with len(s) != n: numpy ValueError"),
        ("bad-dpp-k", "dpp", dict(dpp, k="two"), [], 'dpp with "k": "two": int() ValueError'),
    ]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read(path):
    return path.read_text() if path.exists() else None


def run_cli_subprocess(argv, out_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sqlinear.cli", *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, _read(out_path), proc.stderr


def run_cli_inprocess(argv, out_path):
    from sqlinear import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # an uncaught exception is exit 1 in a real process
            code = 1
    return code, _read(out_path), err.getvalue()


def _error_type(stderr):
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]["type"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def _check_cli(label, known, result):
    code, _, stderr = result
    if code not in (0, 2, 3):
        return [f"exit code {code}" + (f" (known defect: {known})" if known else "")]
    if code != 0 and _error_type(stderr) is None:
        return [f"exit code {code} without a JSON error on stderr"]
    if label.startswith("bad-") and code == 0:
        return ["malformed input accepted"]
    return []


def _observe_cli(command, result):
    code, text, stderr = result
    if code != 0:
        return {"code": code, "error": _error_type(stderr)}
    if command in EXACT_COMMANDS:
        return {"code": code, "sha256": digest(text or "")}
    return {"code": code, "output": text}


def _same_numbers(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= FLOAT_TOL
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(k in ("grad_norm", "iterations") or _same_numbers(a[k], b[k]) for k in a)
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_same_numbers(x, y) for x, y in zip(a, b))
    return a == b


def _same_svg(a, b):
    if NUMBER.split(a) != NUMBER.split(b):
        return False
    return all(abs(float(x) - float(y)) <= SVG_TOL for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))


def _compare_cli(command):
    def compare(observed, expected):
        if "output" not in expected or "output" not in observed:
            return _equal(observed, expected)
        if command == "plot":
            same = _same_svg(observed["output"], expected["output"])
        else:
            same = _same_numbers(json.loads(observed["output"]), json.loads(expected["output"]))
        return [] if same else ["numeric output differs from reference beyond tolerance"]

    return compare


def setup_cli(seed, cycles, work_dir, inprocess=False):
    """The seed shuffles the command order of each cycle; inputs are fixed."""
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = run_cli_inprocess if inprocess else run_cli_subprocess
    jobs = []
    for label, command, doc, extra, known in cli_cases():
        in_path = work_dir / f"{label}.json"
        in_path.write_text(json.dumps(doc))
        out_path = work_dir / f"{label}.out"
        argv = [command, "--input", str(in_path), "--output", str(out_path), *extra]

        def run(argv=argv, out_path=out_path):
            if out_path.exists():
                out_path.unlink()
            return runner(argv, out_path)

        jobs.append(
            Job(
                name=label,
                key=None if known else f"cli/{label}",
                run=run,
                check=lambda result, label=label, known=known: _check_cli(label, known, result),
                observe=lambda result, command=command: _observe_cli(command, result),
                compare=_compare_cli(command),
                known_defect=known,
            )
        )
    rng = random.Random(f"{seed}/cli")
    return [rng.sample(jobs, len(jobs)) for _ in range(cycles)]


def import_seconds(repeats, clock):
    """Times on ``clock`` (a stats.ScaledClock) of fresh interpreters running
    ``import sqlinear.cli``: the child's CPU time and this process's share of
    starting it."""
    argv = [sys.executable, "-c", "import sqlinear.cli"]
    times = []
    for _ in range(repeats):
        _, error, elapsed = clock.call(
            lambda: subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=60)
        )
        if error is not None:
            raise error
        times.append(elapsed)
    return times


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A run times a fixed number of whole cycles: ``--seconds`` divided by
    the cycle time measured when the benchmark was added (2 cores, wall time
    with the clock's calibration probes), at least
    ``min_cycles`` and at most ``pool`` cycles. The parent and the child
    commit thus time the same jobs for the same seed, every shape is equally
    weighted, and the tail percentile always has the same rank."""

    name: str  # the reason for each workload is in BENCHMARK.json
    build: object  # (seed, cycles, work_dir, inprocess) -> cycles
    cycle_s: float  # seconds per cycle when the benchmark was added
    min_cycles: int
    pool: int
    trace_cycles: int  # cycles in the fixed job list of a traced run
    child_processes: bool = False  # jobs run in child processes (see run.job_clock)

    def cycles_for(self, seconds: float) -> int:
        return min(self.pool, max(self.min_cycles, round(seconds / self.cycle_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-regions",
            lambda seed, cycles, work, inproc: setup_exact(seed, cycles),
            cycle_s=7.0,
            min_cycles=5,
            pool=EXACT_POOL,
            trace_cycles=1,
        ),
        Workload(
            "numeric-mle",
            lambda seed, cycles, work, inproc: setup_mle(seed, cycles),
            cycle_s=0.65,
            min_cycles=10,
            pool=MLE_S_POOL // 2,
            trace_cycles=10,
        ),
        Workload(
            "session",
            lambda seed, cycles, work, inproc: setup_session(seed, cycles),
            cycle_s=3.4,
            min_cycles=5,
            pool=SESSION_POOL,
            trace_cycles=1,
        ),
        Workload(
            "cli",
            lambda seed, cycles, work, inproc: setup_cli(seed, cycles, work, inproc),
            cycle_s=5.5,
            min_cycles=1,
            pool=1000,  # fixed inputs: any number of cycles
            trace_cycles=1,
            child_processes=True,
        ),
    )
}
