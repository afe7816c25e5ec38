"""Golden CLI outputs: every command on the catalog models, plus error inputs.

    PYTHONPATH=src python tests/golden/make_golden.py [--check] [NAME ...]

runs each case of :func:`cases` through ``sqlinear.cli.main`` and writes
``tests/golden/golden.json``: per case the exit code, the ``--output`` text,
the stderr text and, when the case asks for one, the SVG figure.
``tests/test_golden.py`` replays the same cases and compares them with the
file. Regenerate only when an output is meant to change.

With case names, only those cases are run and rewritten; every other case
keeps its record byte for byte. Without names, every case is regenerated,
which also rewrites float last digits that differ from machine to machine.
For each rewritten case, stderr gets what changed against the old file: the
changed leaves of a JSON output, path by path with old -> new values, and a
note when the exit code, stderr text, SVG or non-JSON output changed.

``--check`` rewrites nothing: it reports, in the same form, each case
whose record would change byte for byte (also a last float digit, which
``tests/test_golden.py`` lets pass) and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SVG = "{svg}"  # placeholder in the extra arguments for the SVG path


def cases():
    """(name, command, input document or raw text, extra arguments)."""
    from sqlinear import catalog
    from sqlinear.jsonio import arrangement_to_json

    models = {
        "steiner": catalog.steiner_arrangement(),
        "four": catalog.four_points_arrangement(),
        "six": catalog.six_points_arrangement(),
        "seven": catalog.seven_lines_arrangement(),
        "braid4": catalog.braid_arrangement(4),
    }
    docs = {name: arrangement_to_json(arr) for name, arr in models.items()}
    data = {
        "steiner": [4, 3, 2, 1],
        "four": [1, 2, 3, 4],
        "six": [3, 1, 4, 1, 5, 9],
        "seven": [1, 2, 3, 4, 5, 6, 7],
        "braid4": [2, 7, 1, 8, 2, 8],
    }
    # Kernel points y = A x with no zero coordinate.
    params = {"steiner": (1, 2, 3), "four": (3, -1), "six": (7, -2), "seven": (2, -1, 3), "braid4": (1, 3, -2)}
    kernel = {name: [str(v) for v in models[name].form_values(x)] for name, x in params.items()}
    weights = {"steiner": [0, 3, 4, 5], "four": [0, 1, 3, 2], "six": [0, 2, 1, 5, 3, 4], "braid4": [0, 3, 1, 4, 2, 5]}

    out = []
    for name, doc in docs.items():
        out += [
            (f"regions-{name}", "regions", doc, []),
            (f"charpoly-{name}", "charpoly", doc, []),
            (f"mldegree-{name}", "mldegree", doc, []),
            (f"mle-{name}", "mle", dict(doc, s=data[name]), []),
            (f"degenerate-{name}", "degenerate", doc, ["--anchor", "1"]),
            (f"lognormal-{name}", "lognormal", dict(doc, y=kernel[name]), []),
            (f"chamber-{name}", "chamber", doc, []),
            (f"ideal-{name}", "ideal", doc, []),
            (f"singular-{name}", "singular", doc, []),
            (f"plot-{name}", "plot", dict(doc, s=data[name]), []),
        ]
        if name in weights:
            out.append((f"tropical-{name}", "tropical", dict(doc, w=weights[name]), ["--anchor", "1"]))

    steiner, four = docs["steiner"], docs["four"]
    # Example 6.5: from s* = y^2 / |y|^2 9/10 of the way to a point on an edge.
    s_star = [Fraction(v * v, 15) for v in (3, 2, 1, -1)]
    edge = [Fraction(0), Fraction(12, 25), Fraction(4, 25), Fraction(9, 25)]
    start = [str(v) for v in s_star]
    end = [str(a + Fraction(9, 10) * (b - a)) for a, b in zip(s_star, edge)]
    segment = {"start": start, "end": end}
    dpp = {"Theta_fixed": [[1, 2, 3, 4, 5], [2, -1, 4, 1, -3]], "k": 3, "n": 5}
    circle = arrangement_to_json(catalog.circle_arrangement())
    braid5 = arrangement_to_json(catalog.braid_arrangement(5))
    # Squares of the first six forms are dependent (four forms avoid x3).
    dependent = {"A": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]}
    out += [
        ("regions-svg-steiner", "regions", steiner, ["--svg", SVG]),
        ("regions-svg-four", "regions", four, ["--svg", SVG]),
        ("mle-svg-steiner", "mle", dict(steiner, s=data["steiner"]), ["--svg", SVG]),
        ("mle-tol-four", "mle", dict(four, s=data["four"]), ["--tol", "1e-8"]),
        ("degenerate-braid4-anchor3", "degenerate", docs["braid4"], ["--anchor", "3"]),
        ("tropical-svg-steiner", "tropical", dict(steiner, w=weights["steiner"]), ["--anchor", "1", "--svg", SVG]),
        ("tropical-grid-four", "tropical", dict(four, w=[2, 0, 1, 3]), ["--anchor", "2", "--eps-grid", "0.1,0.03,0.01,0.003"]),
        ("voronoi-four", "voronoi", dict(four, y=[3, 2, 1, -1], segment=segment), ["--samples", "8"]),
        ("voronoi-four-tol", "voronoi", dict(four, y=[3, 2, 1, -1], segment=segment), ["--samples", "4", "--tol", "1e-9"]),
        ("plot-steiner-tracking", "plot", dict(steiner, s=data["steiner"], w=weights["steiner"]), ["--anchor", "1"]),
        ("plot-four-tracking", "plot", dict(four, w=weights["four"]), ["--anchor", "1", "--eps-grid", "0.1,0.03,0.01"]),
        ("plot-circle-lognormal", "plot", dict(circle, s=[1, 2, 3], y=[1, 2, 3]), []),
        ("dpp-k3-n5", "dpp", dpp, []),
        ("dpp-theta", "dpp", dict(dpp, Theta=[[1, 2, 3, 4, 5], [2, -1, 4, 1, -3], [1, 0, 2, -1, 1]]), []),
        ("dpp-k2-n4", "dpp", {"Theta_fixed": [[1, 2, 3, 5]], "k": 2, "n": 4}, []),
        ("dpp-k4-n6", "dpp", {"Theta_fixed": [[1, 0, 2, 1, 3, 1], [0, 1, 1, 2, 1, 4], [2, 1, 0, 1, 1, 1]], "k": 4, "n": 6}, []),
        ("dpp-repaired-columns", "dpp", {"Theta_fixed": [[1, 0, 2, 1, 2, 3], [0, 1, 1, 1, 1, 1], [2, 1, 0, 1, 2, 3]], "k": 4, "n": 6}, []),
        ("ideal-dependent-block", "ideal", dependent, []),
        ("regions-dependent", "regions", dependent, []),
        ("charpoly-braid5", "charpoly", braid5, []),
        # Error inputs.
        ("err-parallel-rows", "regions", {"A": [[1, 0], [2, 0], [0, 1]]}, []),
        ("err-zero-row", "charpoly", {"A": [[1, 0], [0, 0], [0, 1]]}, []),
        ("err-empty-matrix", "regions", {"A": []}, []),
        ("err-rank-deficient", "mldegree", {"A": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}, []),
        ("err-singular-rank-deficient", "singular", {"A": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}, []),
        ("err-bad-json", "regions", "not json", []),
        ("err-not-object", "regions", "[1, 2]", []),
        ("err-bad-schema", "regions", dict(steiner, schema="slm/0"), []),
        ("err-mle-missing-s", "mle", steiner, []),
        ("err-mle-length", "mle", dict(steiner, s=[1, 2, 3]), []),
        ("err-mle-negative", "mle", dict(steiner, s=[1, -2, 3, 4]), []),
        ("err-mle-tol", "mle", dict(steiner, s=data["steiner"]), ["--tol", "0"]),
        ("err-mle-no-convergence", "mle", dict(steiner, s=data["steiner"]), ["--tol", "1e-300"]),
        ("err-dpp-k-text", "dpp", dict(dpp, k="two"), []),
        ("err-dpp-k-range", "dpp", dict(dpp, k=5), []),
        ("err-dpp-zero-form", "dpp", {"Theta_fixed": [[1, 2, 3, 1, 2], [2, -1, 4, 2, 4]], "k": 3, "n": 5}, []),
        ("err-dpp-dependent", "dpp", {"Theta_fixed": [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]], "k": 3, "n": 5}, []),
        ("err-ideal-small-n", "ideal", steiner, []),
        ("err-degenerate-no-anchor", "degenerate", steiner, []),
        ("err-degenerate-anchor-range", "degenerate", steiner, ["--anchor", "9"]),
        ("err-tropical-missing-w", "tropical", steiner, ["--anchor", "1"]),
        ("err-tropical-eps-grid", "tropical", dict(steiner, w=weights["steiner"]), ["--anchor", "1", "--eps-grid", "a,b"]),
        ("err-lognormal-off-kernel", "lognormal", dict(steiner, y=[1, 2, 3, 4]), []),
        ("err-lognormal-zero", "lognormal", dict(steiner, y=[0, 1, 2, 3]), []),
        ("err-voronoi-no-segment", "voronoi", dict(four, y=[3, 2, 1, -1]), []),
        ("err-voronoi-bad-segment", "voronoi", dict(four, y=[3, 2, 1, -1], segment=[1, 2]), []),
        ("err-voronoi-off-span", "voronoi", dict(four, y=[3, 2, 1, -1], segment={"start": start, "end": ["1/4"] * 4}), []),
        ("err-plot-dimension", "plot", braid5, []),
    ]
    return out


def run_case(command, doc, extra, workdir):
    """Run one case in ``workdir``; returns the record stored in the golden file."""
    from sqlinear import cli

    workdir = Path(workdir)
    in_path, out_path, svg_path = workdir / "input.json", workdir / "out.json", workdir / "figure.svg"
    for path in (out_path, svg_path):
        if path.exists():
            path.unlink()
    in_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = [str(svg_path) if a == SVG else a for a in extra]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--input", str(in_path), "--output", str(out_path), *args])
    record = {
        "exit": code,
        "output": out_path.read_text() if out_path.exists() else None,
        "stderr": stderr.getvalue(),
    }
    if SVG in extra:
        record["svg"] = svg_path.read_text() if svg_path.exists() else None
    return record


def _leaves(value, path="$"):
    """(path, value) for every leaf of a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def changes(old, new):
    """Lines saying how record ``new`` of a case differs from ``old``."""
    keys = ("command", "args", "exit", "stderr", "svg")
    lines = [f"{key} changed" for key in keys if old.get(key) != new.get(key)]
    if old["output"] != new["output"]:
        try:
            before, after = (dict(_leaves(json.loads(record["output"]))) for record in (old, new))
        except (TypeError, ValueError):  # no output, or an SVG figure
            return lines + ["output changed"]
        absent = object()
        for path in dict.fromkeys([*before, *after]):
            a, b = before.get(path, absent), after.get(path, absent)
            if a != b:
                lines.append(f"{path}: {'absent' if a is absent else a} -> {'absent' if b is absent else b}")
    return lines


def main(names=(), check=False):
    """Regenerate the named cases, or all of them; with ``check``, write
    nothing and return 1 when some case's record would change byte for
    byte, reporting only those cases."""
    todo = cases()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    if names:
        unknown = sorted(set(names) - {case[0] for case in todo})
        if unknown:
            sys.exit(f"unknown golden cases: {', '.join(unknown)}")
        golden = dict(old)
        todo = [case for case in todo if case[0] in names]
    moved = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, command, doc, extra in todo:
            golden[name] = dict(command=command, args=extra, **run_case(command, doc, extra, workdir))
            lines = changes(old[name], golden[name]) if name in old else ["new case"]
            differs = golden[name] != old.get(name)
            moved += differs
            if differs or not check:
                for line in lines or ["output text changed" if differs else "unchanged"]:
                    print(f"{name}: {line}", file=sys.stderr)
    if check:
        print(f"{moved} of {len(todo)} checked cases would change", file=sys.stderr)
        return 1 if moved else 0
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(todo)} of {len(golden)} cases to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    check = "--check" in sys.argv[1:]
    sys.exit(main([name for name in sys.argv[1:] if name != "--check"], check=check))
