"""Replay the golden CLI cases (tests/golden/make_golden.py) through cli.main.

Exact commands and every error JSON must match byte for byte; numeric
commands must agree within 1e-9 in every float, and SVG figures must be the
same text with each number within 1e-3.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.GOLDEN.read_text())
CASES = {name: (command, doc, extra) for name, command, doc, extra in make_golden.cases()}
EXACT = {"regions", "charpoly", "mldegree", "degenerate", "lognormal", "chamber", "dpp", "ideal", "singular"}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def test_case_list_matches_golden_file():
    assert sorted(CASES) == sorted(GOLDEN)


def test_changes_name_what_a_rewrite_changed():
    old = {"exit": 0, "stderr": "", "output": json.dumps({"a": [1, 2], "b": 1.0})}
    new = {"exit": 0, "stderr": "x", "output": json.dumps({"a": [1, 3], "c": None})}
    assert make_golden.changes(old, new) == [
        "stderr changed", "$.a[1]: 2 -> 3", "$.b: 1.0 -> absent", "$.c: absent -> None"
    ]
    svg = dict(old, output="<svg/>", svg="<svg/>")
    assert make_golden.changes(svg, dict(svg, output="<svg></svg>")) == ["output changed"]
    assert make_golden.changes(svg, dict(svg, svg=None)) == ["svg changed"]


def test_check_rewrites_nothing_and_names_each_moved_case(tmp_path, monkeypatch, capsys):
    name = "regions-steiner"
    text = json.dumps(dict(GOLDEN, **{name: dict(GOLDEN[name], stderr="old")}))
    path = tmp_path / "golden.json"
    path.write_text(text)
    monkeypatch.setattr(make_golden, "GOLDEN", path)
    assert make_golden.main([name, "charpoly-steiner"], check=True) == 1
    assert make_golden.main(["charpoly-steiner"], check=True) == 0
    assert path.read_text() == text
    assert capsys.readouterr().err.splitlines() == [
        f"{name}: stderr changed",
        "1 of 2 checked cases would change",
        "0 of 1 checked cases would change",
    ]


def assert_close(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want)), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{path}[{i}]")
    else:
        assert got == want, path


def assert_same_svg(got, want):
    assert NUMBER.split(got) == NUMBER.split(want)
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(a) - float(b)) <= 1e-3, (a, b)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_case(name, workdir):
    command, doc, extra = CASES[name]
    want = GOLDEN[name]
    got = make_golden.run_case(command, doc, extra, workdir)
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    if command in EXACT:
        assert got["output"] == want["output"]
    elif command == "plot" and want["output"] is not None:
        assert_same_svg(got["output"], want["output"])
    elif want["output"] is not None:
        assert_close(json.loads(got["output"]), json.loads(want["output"]))
    else:
        assert got["output"] is None
    if "svg" in want:
        assert_same_svg(got["svg"], want["svg"])
