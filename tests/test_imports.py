"""What importing the package and running the commands loads.

The exact side (regions, characteristic polynomial, polytopes, chamber
arrangements, DPP reductions, the ideal, singular subspaces, the closed-form
degenerations) needs only rational arithmetic, so neither ``import sqlinear``
nor those commands may load numpy or a float module. Start-up is most of a
CLI call, so ``import sqlinear.cli`` and ``--help`` load none of the layers
in ``LAYERS``: each command imports the layers it runs when it runs. The
records derive from :class:`sqlinear.arrangement.Record`, not from
dataclasses, so no command loads ``dataclasses``, and the exact ones load
no ``inspect`` either (numpy loads that).
:mod:`sqlinear.plotting` loads numpy only when it draws, and
:mod:`sqlinear.degeneration` only when it tracks. Region enumeration runs no
LP (the library holds none), so the ``regions`` command does not load the
emptied :mod:`sqlinear.simplex` either.
Each probe runs in a fresh interpreter and reads ``sys.modules`` afterwards;
nothing is timed.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import sqlinear
from sqlinear import catalog
from sqlinear.jsonio import arrangement_to_json, rationals_to_json

SRC = Path(sqlinear.__file__).resolve().parents[1]
README = SRC.parent / "README.md"
FLOAT_MODULES = ("numpy", "sqlinear.mle")
# The layers a command loads only when it runs them.
LAYERS = ("sqlinear.geometry", "sqlinear.model", "sqlinear.dpp", "sqlinear.plotting", "sqlinear.degeneration")
# What importing dataclasses loads, ~7 ms of start-up.
MACHINERY = ("dataclasses", "inspect")

# Every name the package namespace served when it imported each module
# eagerly, with the module that defines it now (less `Flat`, `flats`,
# `snc_check`, `interior_samples`, `evaluate`, `log_likelihood`, `gradient`,
# `solve_region`, `generic_ml_degree`, `evaluate_exact` and `steiner_quartic`,
# which were removed).
OLD_NAMESPACE = {
    "arrangement": (
        "Arrangement", "CharacteristicPolynomial", "KernelComplement", "Region", "SignVector",
        "characteristic_polynomial", "enumerate_regions", "kernel_complement", "ml_degree",
    ),
    "degeneration": (
        "DegenerateSolution", "TropicalData", "TropicalPoint", "ValuationEstimate",
        "estimate_valuations", "tropical_predictions", "unit_data_solutions",
    ),
    "dpp": ("DPPModel", "dpp_ml_degree_l2", "dpp_probabilities", "linear_projection_arrangement"),
    "geometry": (
        "Polytope", "chamber_arrangement", "combinatorial_type_scan", "dual_polytope",
        "log_voronoi_scan", "lognormal_polytope", "swap_candidates",
    ),
    "mle": ("CriticalPoint", "likelihood_matrix", "rank_defect", "solve_all"),
    "model": (
        "SquaredLinearModel", "VeroneseGenerators", "make_model", "minor_space_dimension", "singular_subspaces",
        "veronese_generators",
    ),
}
# The submodules the package bound as attributes when it imported eagerly.
OLD_SUBMODULES = (*OLD_NAMESPACE, "errors", "ratlin", "simplex")


def loaded_after(code, modules=FLOAT_MODULES):
    """Which of ``modules`` are in ``sys.modules`` after a fresh interpreter
    runs ``code``, and the value ``code`` leaves in ``result``."""
    loaded = f"[m for m in {modules!r} if m in sys.modules]"
    probe = code + f"\nimport json, sys\nprint(json.dumps([result, {loaded}]))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_probe(tmp_path, command, doc, *extra, modules=FLOAT_MODULES):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--output", str(tmp_path / "out"), *extra]
    return loaded_after(f"from sqlinear import cli\nresult = cli.main({argv!r})", modules)


def steiner():
    return arrangement_to_json(catalog.steiner_arrangement())


EXACT_COMMANDS = {
    "regions": steiner,
    "charpoly": steiner,
    "mldegree": steiner,
    "lognormal": lambda: dict(
        steiner(), y=rationals_to_json(catalog.steiner_arrangement().form_values((1, 2, 3)))
    ),
    "chamber": steiner,
    "dpp": lambda: {"Theta_fixed": [[1, 2, 3, 4, 5], [2, -1, 4, 1, -3]], "k": 3, "n": 5},
    "ideal": lambda: arrangement_to_json(catalog.seven_lines_arrangement()),
    "singular": steiner,
}


def voronoi_doc():
    # Example 6.5: from s* = y^2 / |y|^2 9/10 of the way to a point on an edge.
    start = [Fraction(v * v, 15) for v in (3, 2, 1, -1)]
    edge = [0, Fraction(12, 25), Fraction(4, 25), Fraction(9, 25)]
    end = [a + Fraction(9, 10) * (b - a) for a, b in zip(start, edge)]
    segment = {"start": rationals_to_json(start), "end": rationals_to_json(end)}
    return dict(arrangement_to_json(catalog.four_points_arrangement()), y=[3, 2, 1, -1], segment=segment)


# command -> (input, extra arguments); "{svg}" stands for a figure path.
FLOAT_COMMANDS = {
    "mle": (lambda: dict(steiner(), s=[4, 3, 2, 1]), ["--svg", "{svg}"]),
    "tropical": (lambda: dict(steiner(), w=[0, 3, 4, 5]), ["--anchor", "1", "--svg", "{svg}"]),
    "voronoi": (voronoi_doc, ["--samples", "2"]),
    "plot": (lambda: dict(steiner(), s=[4, 3, 2, 1], w=[0, 3, 4, 5]), ["--anchor", "1"]),
    "dpp": (lambda: dict(EXACT_COMMANDS["dpp"](), Theta=[[1, 2, 3, 4, 5], [2, -1, 4, 1, -3], [1, 0, 2, -1, 1]]), []),
    "regions": (steiner, ["--svg", "{svg}"]),
}


@pytest.mark.parametrize(
    "statement",
    ["import sqlinear", "import sqlinear.cli", "from sqlinear import plotting", "import sqlinear.degeneration"],
)
def test_import_loads_no_float_module(statement):
    assert loaded_after(f"{statement}\nresult = None", FLOAT_MODULES + MACHINERY) == [None, []]


@pytest.mark.parametrize("command", sorted(EXACT_COMMANDS))
def test_exact_command_loads_no_float_module(tmp_path, command):
    assert cli_probe(tmp_path, command, EXACT_COMMANDS[command](), modules=FLOAT_MODULES + MACHINERY) == [0, []]


@pytest.mark.parametrize("command", sorted(FLOAT_COMMANDS))
def test_float_command_loads_no_dataclasses(tmp_path, command):
    doc, extra = FLOAT_COMMANDS[command]
    extra = [str(tmp_path / "figure.svg") if a == "{svg}" else a for a in extra]
    assert cli_probe(tmp_path, command, doc(), *extra, modules=("numpy", "dataclasses")) == [0, ["numpy"]]


def test_no_source_file_imports_dataclasses():
    importers = []
    for path in sorted((SRC / "sqlinear").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            importers += [path.name for module in modules if module and module.split(".")[0] == "dataclasses"]
    assert importers == []


@pytest.mark.parametrize(
    "command, doc, extra, code",
    [
        ("degenerate", {}, ["--anchor", "1"], 0),
        ("degenerate", {}, [], 2),
        ("degenerate", {}, ["--anchor", "9"], 2),
        ("mle", {"s": [1, 2, 3]}, [], 2),
        ("plot", {"s": [1, 2, 3]}, [], 2),
        ("plot", {"s": [1, 2, 3], "w": [0, 3, 4, 5]}, ["--anchor", "1"], 2),
    ],
    ids=[
        "degenerate", "degenerate-no-anchor", "degenerate-anchor-range", "mle-length", "plot-length",
        "plot-anchor-length",
    ],
)
def test_exact_path_of_a_float_command_loads_no_float_module(tmp_path, command, doc, extra, code):
    assert cli_probe(tmp_path, command, dict(steiner(), **doc), *extra) == [code, []]


def test_cli_import_loads_no_layer():
    assert loaded_after("import sqlinear.cli\nresult = None", LAYERS + FLOAT_MODULES) == [None, []]


@pytest.mark.parametrize(
    "command, layers",
    [
        ("charpoly", LAYERS),
        ("mldegree", LAYERS),
        ("regions", LAYERS),
        ("ideal", ("sqlinear.geometry", "sqlinear.dpp")),
        ("singular", ("sqlinear.geometry", "sqlinear.dpp")),
    ],
    ids=["charpoly", "mldegree", "regions", "ideal", "singular"],
)
def test_command_loads_only_its_layers(tmp_path, command, layers):
    assert cli_probe(tmp_path, command, EXACT_COMMANDS[command](), modules=layers) == [0, []]


def test_help_names_every_command_and_loads_no_layer():
    from sqlinear.cli import COMMANDS

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sqlinear.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [name for name in COMMANDS if name not in proc.stdout] == []
    # -X importtime writes one "import time: self | cumulative | name" line per module loaded
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "argparse" in loaded
    assert sorted(loaded & set(LAYERS + FLOAT_MODULES + MACHINERY)) == []


def test_regions_command_loads_no_lp(tmp_path):
    assert cli_probe(tmp_path, "regions", steiner(), modules=("sqlinear.simplex",)) == [0, []]


def test_malformed_input_loads_no_float_module(tmp_path):
    assert cli_probe(tmp_path, "regions", {"A": [[1, 0], [2, 0], [0, 1]]}) == [2, []]


def test_float_command_loads_numpy(tmp_path):
    # The probe can see a float module when one is loaded.
    code, loaded = cli_probe(tmp_path, "mle", dict(steiner(), s=[4, 3, 2, 1]))
    assert code == 0 and {"numpy", "sqlinear.mle"} <= set(loaded)


def src_sources():
    return {path.stem: path.read_text() for path in sorted((SRC / "sqlinear").glob("*.py"))}


def test_no_source_file_names_linalgerror():
    """The Newton batch reads each row's LAPACK verdict from the NaNs of one
    stacked call, so no module under src/ catches, raises or names the error
    np.linalg raises for a whole stack."""
    assert [module for module, source in src_sources().items() if "LinAlgError" in source] == []


def names_without_a_caller(sources):
    """Top-level functions and classes (dunders aside) of ``{module: source}``
    that nothing calls. A name of module m counts as called when m reads it
    as a Name outside its own definition, when a module imports it by
    ``from .m import name``, or when code reads it as an attribute of a name
    bound by ``from . import m``; the strings of ``__init__._EXPORTS`` do not
    count, and neither does an attribute of any other object."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    called = set()
    for module, tree in trees.items():
        bound = {}  # local name -> module, from `from . import m [as local]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        bound[alias.asname or alias.name] = alias.name
                    else:
                        called.add((node.module, alias.name))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    called.add((module, node.id))
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                    called.add((bound[node.value.id], node.attr))
    return {
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("__")
        and (module, stmt.name) not in called
    }


def reads(node):
    """How often each attribute name is read under ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def members_without_a_caller(sources):
    """Methods and properties (dunders aside) of the top-level classes of
    ``{module: source}`` whose name no attribute read carries outside the
    member's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(reads, trees.values()), Counter())
    return {
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("__")
        and total[member.name] == reads(member)[member.name]
    }


def is_slots(stmt):
    return isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]


def fields_without_a_reader(sources):
    """The ``__slots__`` fields of the top-level classes of ``{module: source}``
    whose name no attribute read carries outside the class's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(reads, trees.values()), Counter())
    return {
        f"{module}.{cls.name}.{field}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if is_slots(stmt)
        for field in ast.literal_eval(stmt.value)
        if total[field] == reads(cls)[field]
    }


@pytest.mark.parametrize(
    "user, uncalled",
    [
        ("def f(x):\n    return x.helper()\n", {"m.helper"}),
        ("from . import m\n\ndef f():\n    return m.helper()\n", set()),
        ("from . import m as alias\n\ndef f():\n    return alias.helper()\n", set()),
        ("def f():\n    from .m import helper\n", set()),
        ("from . import other\n\ndef f():\n    return other.helper()\n", {"m.helper"}),
    ],
    ids=["other-object", "module-attribute", "module-alias", "from-import", "other-module"],
)
def test_a_name_counts_as_called_only_through_its_module(user, uncalled):
    helper = "def helper():\n    return helper()\n"  # calling itself does not count
    assert names_without_a_caller({"m": helper, "user": user}) == {"user.f", *uncalled}
    assert names_without_a_caller({"m": helper + "\ndef g():\n    return helper()\n"}) == {"m.g"}


@pytest.mark.parametrize(
    "user, unread",
    [
        ("def f(r):\n    return r.other\n", {"m.R.field"}),
        ("def f(r):\n    r.field = 1\n", {"m.R.field"}),
        ("def f(r):\n    return r.field\n", set()),
        ("class S:\n    def g(self, r):\n        return r.field\n", set()),
    ],
    ids=["other-name", "store", "function", "other-class"],
)
def test_a_field_counts_as_read_only_outside_its_class(user, unread):
    record = 'class R:\n    __slots__ = ("field",)\n\n    def get(self):\n        return self.field\n'
    assert fields_without_a_reader({"m": record, "user": user}) == unread  # reading itself does not count
    assert fields_without_a_reader({"m": record + user}) == unread


# Top-level names that nothing in src/ refers to. Each should get a caller in
# src/, become a check, or move into tests/; until then they stay because the
# tests, the golden cases or the benchmark use them.
NO_SRC_CALLER = {
    # The example arrangements: inputs of the tests, golden cases and benchmark.
    "catalog.braid_arrangement", "catalog.circle_arrangement", "catalog.four_points_arrangement",
    "catalog.random_arrangement", "catalog.seven_lines_arrangement", "catalog.six_points_arrangement",
    "catalog.steiner_arrangement",
    # Library entry points that the benchmark runs or traces, and the tests call.
    "geometry.combinatorial_type_scan", "geometry.dual_polytope", "mle.likelihood_matrix",
    "mle.rank_defect", "jsonio.arrangement_to_json",
}
# Methods and properties that no attribute read in src/ names: the benchmark
# and the golden cases read form_values, and so do the tests.
NO_SRC_MEMBER_CALLER = {"arrangement.Arrangement.form_values"}
# Record fields that no attribute read in src/ names: the benchmark's
# numeric-mle check reads hessian_max_eig.
NO_SRC_FIELD_READER = {"mle.CriticalPoint.hessian_max_eig"}


def test_src_names_without_a_src_caller():
    """A new top-level function or class with no caller in src/ fails here,
    and so does a listed name that gains one or is deleted."""
    assert names_without_a_caller(src_sources()) == NO_SRC_CALLER


def test_src_members_without_a_src_caller():
    """The same rule for the members of src/'s classes. A method's caller
    cannot be resolved without types, so any attribute read of its name
    counts, except inside the method itself."""
    assert members_without_a_caller(src_sources()) == NO_SRC_MEMBER_CALLER


def test_src_fields_without_a_src_reader():
    """The same rule for the fields of src/'s records: a field is read when
    an attribute read of its name occurs outside its own class. Types are
    not resolved, so a read of any field or attribute of the same name
    counts, and a field named like another record's hides: ``points`` (read
    off a solve's result) and ``anchor`` (read off TropicalData) each hid
    an unread field of another record, which were found by hand."""
    assert fields_without_a_reader(src_sources()) == NO_SRC_FIELD_READER


def test_region_ray_and_witness_have_src_readers():
    """The field rule above counts a read of any ``ray``; these are the
    Region's: the float starts (mle) and the type scan (geometry) read it,
    and the regions command (cli) reads the witness property built from it."""
    readers = {
        (module, node.attr)
        for module, source in src_sources().items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ("ray", "witness")
    }
    assert {("mle", "ray"), ("geometry", "ray"), ("cli", "witness")} <= readers


def test_benchmark_surface_resolves():
    """What perfbench's timed run reads off the package still exists: each
    ``m.name`` read through ``from sqlinear import m [as alias]`` and each
    name of a ``from sqlinear.m import ...`` in workloads.py, each module of
    the tracer's LAYERS, and the A_float property the tracer wraps.
    selftest.py reads a function the package no longer has (see ROADMAP),
    so it is not parsed."""
    import importlib

    from sqlinear.model import SquaredLinearModel

    bench = SRC.parent / "perfbench"
    tree = ast.parse((bench / "workloads.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    aliases = {a.asname or a.name: a.name for node in imports if node.module == "sqlinear" for a in node.names}
    read = {
        (node.module.split(".", 1)[1], a.name)
        for node in imports
        if node.module.startswith("sqlinear.")
        for a in node.names
    }
    read |= {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases
    }
    assert len(read) == 29  # the names workloads.py reads today
    assert [f"{m}.{name}" for m, name in sorted(read) if not hasattr(importlib.import_module(f"sqlinear.{m}"), name)] == []
    (layers,) = (
        ast.literal_eval(stmt.value)
        for stmt in ast.parse((bench / "tracer.py").read_text()).body
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["LAYERS"]
    )
    for layer in layers:
        importlib.import_module(f"sqlinear.{layer}")
    assert isinstance(SquaredLinearModel.__dict__["A_float"], property)


# What workloads.py reads off the package's objects: class -> members. A
# record field, property or method that is renamed or dropped fails here.
BENCHMARK_MEMBERS = {
    "arrangement.Arrangement": ("A", "form_values"),
    "arrangement.CharacteristicPolynomial": ("coeffs",),
    "arrangement.KernelComplement": ("B",),
    "arrangement.Region": ("sign", "witness"),
    "arrangement.SignVector": ("signs",),
    "degeneration.DegenerateSolution": ("J", "generic_flag", "y"),
    "degeneration.TropicalData": ("anchor",),
    "degeneration.TropicalPoint": ("J", "z"),
    "degeneration.ValuationEstimate": ("point",),
    "dpp.DiscriminantalArrangement": ("arrangement",),
    "geometry.ChamberHyperplane": ("normal",),
    "geometry.Polytope": ("f_vector",),
    "geometry.VoronoiProfile": ("crossings", "tags"),
    "mle.CriticalPoint": ("hessian_max_eig", "logL", "region", "x"),
    "mle.SolveAllResult": ("failures", "mle", "mle_index", "points"),
    "model.SquaredLinearModel": ("B", "arr", "d", "n"),
}


def src_member_names():
    """The names of the fields, methods and properties of src/'s top-level classes."""
    names = set()
    for source in src_sources().values():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names.add(stmt.name)
                    elif is_slots(stmt):
                        names.update(ast.literal_eval(stmt.value))
    return names


def test_benchmark_members_resolve():
    """Each member that workloads.py reads off a library object exists on
    its class, and the list above holds every attribute name that
    workloads.py reads off a value other than a module and that some class
    of src/ defines. Types are not resolved, so the list says which class
    each name is read from."""
    import importlib

    missing = []
    for path, names in BENCHMARK_MEMBERS.items():
        module, cls = path.split(".")
        owner = getattr(importlib.import_module(f"sqlinear.{module}"), cls)
        missing += [f"{path}.{name}" for name in names if not hasattr(owner, name)]
    assert missing == []
    tree = ast.parse((SRC.parent / "perfbench" / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", None) not in modules
    }
    listed = {name for names in BENCHMARK_MEMBERS.values() for name in names}
    assert read & src_member_names() == listed


def test_cli_reads_floats_only_through_the_layers():
    """cli.py imports no numpy and no to_floats: a figure's tracked arcs are
    the solver's points and its limit points exact, so plotting converts
    both, and nothing in the CLI works an x out again from y."""
    tree = ast.parse((SRC / "sqlinear" / "cli.py").read_text())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
    }
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    assert "to_floats" not in imported
    assert "lstsq" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_src_has_no_assertion():
    """No command may exit 1, and an AssertionError would: src/ has no
    ``assert`` statement and names no AssertionError."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "sqlinear").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == []


def test_old_namespace_resolves_from_home_modules():
    import importlib

    for module, names in OLD_NAMESPACE.items():
        home = importlib.import_module(f"sqlinear.{module}")
        for name in names:
            assert getattr(sqlinear, name) is getattr(home, name), name
            assert name in dir(sqlinear), name
            namespace = {}
            exec(f"from sqlinear import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
    for module in OLD_SUBMODULES:
        assert getattr(sqlinear, module) is importlib.import_module(f"sqlinear.{module}"), module
        assert module in dir(sqlinear), module
    assert sqlinear.__version__ == "0.1.0"
    assert sorted(sqlinear.__all__) == sorted(n for names in OLD_NAMESPACE.values() for n in names)
    with pytest.raises(AttributeError):
        sqlinear.no_such_name


def test_namespace_reads_the_home_module_on_every_lookup(monkeypatch):
    from sqlinear import mle

    assert "solve_all" not in vars(sqlinear)
    monkeypatch.setattr(mle, "solve_all", lambda *args: "rebound")
    assert sqlinear.solve_all() == "rebound"
    assert "solve_all" not in vars(sqlinear)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
