"""Seeded mutation fuzz of the CLI's exit-code contract.

Every command gets a small valid input; each case mutates one node of it
(wrong length or type, out-of-range or tiny numbers, NaN, null, empty
lists, zero or parallel rows, d = 1 or n <= d, a missing key) or one flag
value. Whatever the input, the CLI must exit 0, 2 or 3, and every nonzero
exit must leave one JSON error on stderr, never a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

import pytest

from sqlinear.cli import main

FOUR = [[1, 0], [1, 1], [1, 2], [0, 1]]
STEINER = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
SEGMENT = {"start": ["3/5", "4/15", "1/15", "1/15"], "end": ["3/50", "2/75", "11/30", "41/75"]}

# command -> (valid input, flags)
BASES = {
    "regions": ({"A": FOUR}, []),
    "charpoly": ({"A": STEINER}, []),
    "mldegree": ({"A": STEINER}, []),
    "mle": ({"A": FOUR, "s": [1, 2, 3, 4]}, ["--tol", "1e-10"]),
    "degenerate": ({"A": STEINER}, ["--anchor", "1"]),
    "tropical": ({"A": FOUR, "w": [0, 1, 3, 2]}, ["--anchor", "1", "--eps-grid", "0.1,0.03,0.01"]),
    "lognormal": ({"A": FOUR, "y": [3, 2, 1, -1]}, []),
    "chamber": ({"A": FOUR}, []),
    "voronoi": ({"A": FOUR, "y": [3, 2, 1, -1], "segment": SEGMENT}, ["--samples", "2"]),
    "dpp": ({"Theta_fixed": [[1, 2, 3, 5]], "k": 2, "n": 4, "Theta": [[1, 2, 3, 5], [1, 0, 2, -1]]}, []),
    "ideal": ({"A": FOUR}, []),
    "singular": ({"A": STEINER}, []),
    "plot": ({"A": FOUR, "s": [1, 2, 3, 4], "w": [0, 1, 3, 2]}, ["--anchor", "1", "--eps-grid", "0.1,0.03,0.01"]),
}

ODD_VALUES = ["1e400", "-1e400", 1e-320, 5e-324, float("nan"), None, [], {}, "abc", True, 0, -1, "1/0"]
ODD_VALUES += [[[1]], [[1], [2], [3]], [[1, 0], [0, 1]]]  # d = 1 and n <= d where a matrix goes
ODD_FLAGS = {
    "--tol": ["0", "1e-300", "1e300", "nan"],
    "--anchor": ["0", "2", "4", "5", "-1"],
    "--eps-grid": ["0.1,0.01", "0.1,0.01,1e-400", "nan,0.1,0.01", "0.01,0.1,0.001", "1e-300,1e-301,1e-302"],
    "--samples": ["0", "1", "-2"],
}
CASES_PER_COMMAND = 23


def _nodes(node, path=()):
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, flags, rng):
    doc, flags = copy.deepcopy(doc), list(flags)
    if flags and rng.random() < 0.2:
        k = rng.randrange(0, len(flags), 2)
        flags[k + 1] = rng.choice(ODD_FLAGS[flags[k]])
        return doc, flags
    path = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    rows = isinstance(value, list) and value and all(isinstance(r, list) for r in value)
    op = rng.choice(["odd", "odd", "drop", "append", "zero", "parallel", "delete"])
    if op == "drop" and isinstance(value, list) and value:
        del value[rng.randrange(len(value))]
    elif op == "append" and isinstance(value, list) and value:
        value.append(copy.deepcopy(rng.choice(value)))
    elif op == "zero" and rows:
        value[rng.randrange(len(value))] = [0] * len(value[0])
    elif op == "parallel" and rows and all(isinstance(v, int) for v in value[0]):
        value[rng.randrange(len(value))] = [2 * v for v in value[0]]
    elif op == "delete" and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return doc, flags


def _cases():
    rng = random.Random(20240811)
    for command, (doc, flags) in BASES.items():
        yield command, doc, flags
        for _ in range(CASES_PER_COMMAND):
            yield (command, *_mutate(doc, flags, rng))


def test_mutated_inputs_keep_the_exit_contract(tmp_path):
    in_path, out_path = tmp_path / "input.json", tmp_path / "out.json"
    seen = set()
    for command, doc, flags in _cases():
        text = json.dumps(doc)  # NaN is written as the bare token NaN, which the loader accepts
        case = f"{command} {text} {' '.join(flags)}"
        in_path.write_text(text)
        out_path.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main([command, "--input", str(in_path), "--output", str(out_path), *flags])
            except Exception as err:  # noqa: BLE001 - any escape is the failure under test
                pytest.fail(f"{case}: raised {type(err).__name__}: {err}")
        assert code in (0, 2, 3), case
        seen.add(code)
        if code:
            error = json.loads(stderr.getvalue())["error"]
            assert error["kind"] in ("validation", "numeric", "error") and error["message"], case
            assert not out_path.exists(), case
        else:
            assert out_path.exists(), case
    assert {0, 2} <= seen
