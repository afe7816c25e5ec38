"""``tests/golden/solver_bits.py compare``, the bit-identity check of the
Newton batch between two checkouts, on small hand-built records: identical
records exit 0, a changed path exits 1 and is named, a found point that
fails is listed, and each side's trial and iterate likelihood work, count
of found points that are no maximum and failures by reason are printed. A
draw whose regions or chi digest differs exits 1 and is named before any
path difference. ``record``'s likelihood counter tells the iterates' logL
from the trials' on a live batch."""

import importlib.util
import json
import os
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

TOOL = Path(__file__).parent / "golden" / "solver_bits.py"


@pytest.fixture(scope="module")
def solver_bits():
    spec = importlib.util.spec_from_file_location("solver_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins OpenBLAS threads for its own runs
        spec.loader.exec_module(module)
    return module


def found(region, x, top=-1.0):
    """A found outcome's path, as ``record`` writes it."""
    arrays = " ".join(array("d", x).tobytes().hex() for _ in "xyp")
    return f"{region} {arrays} {(1e-12).hex()} 5 {float(top).hex()}"


def failed(message, trace=((0, 0.5),)):
    return f"NoConvergence: {message} {[(k, v.hex()) for k, v in trace]}"


def outcomes():
    return [
        ["draw #0 data 0 region 0", found("++-", [1.0, 0.5, -0.25]), (-3.5).hex()],
        ["draw #1 data 0 region 1", found("+-+", [1.0, -0.5, 0.75], top=0.25), (-4.0).hex()],
        ["draw #2 data 0 region 2", failed("Newton decrement 5.000e-01 not below tolerance 1.0e-10"), None],
    ]


def compare(
    solver_bits, tmp_path, old, new, work=({"draws": [7, 30]}, {"draws": [4, 12]}), exact=None, iterate=(None, None)
):
    paths = []
    for name, rows, counts, digests, iterates in zip("ab", (old, new), work, exact or ({}, {}), iterate):
        paths.append(tmp_path / f"{name}.json")
        record = {"outcomes": rows, "uniform_mle_index": {"steiner": 1}, "work": counts}
        if exact:
            record["exact"] = digests
        if iterates is not None:
            record["iterate_work"] = iterates
        paths[-1].write_text(json.dumps(record))
    return solver_bits.compare(*paths)


def digests():
    return {"draw": {"regions": "aa", "chi": "bb"}, "other": {"regions": "cc", "chi": "dd"}}


def test_identical_records_exit_0_and_print_work_and_maxima(solver_bits, tmp_path, capsys):
    assert compare(solver_bits, tmp_path, outcomes(), outcomes()) == 0
    out = capsys.readouterr().out
    assert "3 outcomes: 0 path differences, 0 logL differences" in out
    assert "trial likelihood work draws: 7 calls, 30 rows against 4 calls, 12 rows" in out
    assert "iterate likelihood work" not in out  # neither record holds it
    assert "found points whose hessian_max_eig is not negative: 1 against 1" in out
    assert "regions and chi digests: not recorded on both sides" in out
    assert "failures: 1 against 1\nfailures 'Newton decrement # not below tolerance #': 1 against 1\n" in out


def test_same_digests_exit_0(solver_bits, tmp_path, capsys):
    assert compare(solver_bits, tmp_path, outcomes(), outcomes(), exact=(digests(), digests())) == 0
    assert "2 draws: 0 regions or chi differences" in capsys.readouterr().out


def test_changed_regions_exit_1_and_are_named_before_paths(solver_bits, tmp_path, capsys):
    new, moved = outcomes(), digests()
    new[0][1] = found("++-", [1.0, 0.5, -0.125])
    moved["draw"]["regions"] = "ab"
    assert compare(solver_bits, tmp_path, outcomes(), new, exact=(digests(), moved)) == 1
    out = capsys.readouterr().out
    assert "regions or chi differ: draw regions\n2 draws: 1 regions or chi differences" in out
    assert out.index("regions or chi differ: draw regions") < out.index("path differs: draw #0 data 0 region 0")


def test_changed_chi_alone_exits_1(solver_bits, tmp_path, capsys):
    moved = digests()
    moved["other"]["chi"] = "de"
    assert compare(solver_bits, tmp_path, outcomes(), outcomes(), exact=(digests(), moved)) == 1
    out = capsys.readouterr().out
    assert "regions or chi differ: other chi" in out and "0 path differences" in out


def test_changed_path_exits_1_and_is_named(solver_bits, tmp_path, capsys):
    new = outcomes()
    new[0][1] = found("++-", [1.0, 0.5, -0.125])
    assert compare(solver_bits, tmp_path, outcomes(), new) == 1
    out = capsys.readouterr().out
    assert "path differs: draw #0 data 0 region 0" in out
    assert "largest relative x difference 1.250e-01" in out


def test_found_point_that_fails_is_listed(solver_bits, tmp_path, capsys):
    new = outcomes()
    new[1][1:] = [failed("Hessian at convergence is not negative definite: largest eigenvalue 2.500e-01"), None]
    assert compare(solver_bits, tmp_path, outcomes(), new, work=({"draws": [7, 30]}, {})) == 1
    out = capsys.readouterr().out
    assert "region or found/failed state differs: draw #1 data 0 region 1" in out
    assert "1 outcomes change region or found/failed state" in out
    assert "trial likelihood work draws: 7 calls, 30 rows against not recorded" in out
    assert "found points whose hessian_max_eig is not negative: 1 against 0" in out
    assert "failures: 1 against 2" in out
    assert "failures 'Hessian at convergence is not negative definite: largest eigenvalue #': 0 against 1" in out


def test_failures_are_counted_by_message_with_numbers_masked(solver_bits):
    rows = [
        ["a", failed("Newton step has negative slope -3.250e-17 on a Cholesky-tested Hessian", [(0, float("nan"))]), None],
        ["b", failed("Newton step has negative slope -1.000e+02 on a Cholesky-tested Hessian"), None],
        ["c", failed("coordinate underflow at convergence: cannot take the sign vector of a zero value", []), None],
        ["d", failed("Newton decrement nan not below tolerance 1.0e-10"), None],
        *outcomes()[:2],
    ]
    assert solver_bits._reasons(rows) == {
        "Newton step has negative slope # on a Cholesky-tested Hessian": 2,
        "Newton decrement # not below tolerance #": 1,
        "coordinate underflow at convergence: cannot take the sign vector of a zero value": 1,
    }


def test_iterate_work_is_printed_beside_trial_work(solver_bits, tmp_path, capsys):
    iterate = (None, {"draws": [5, 40]})  # a record made before the split holds none
    assert compare(solver_bits, tmp_path, outcomes(), outcomes(), iterate=iterate) == 0
    out = capsys.readouterr().out
    assert "trial likelihood work draws: 7 calls, 30 rows against 4 calls, 12 rows\n" in out
    assert "iterate likelihood work draws: not recorded against 5 calls, 40 rows\n" in out


def test_iterates_logL_is_counted_apart_from_trials(solver_bits, steiner, monkeypatch):
    """A logL on the very form values that the last Hessian evaluation read
    is the iterates' logL, whether ``hessian`` takes it or the caller does;
    any other logL is a trial's, even on equal values in another array. On
    a batch, every iterate logL is one Hessian evaluation's rows, and the
    counter puts the methods back when it ends."""
    from sqlinear import mle

    methods = (mle.Likelihood.__call__, mle.Likelihood.hessian, mle.Likelihood.derivatives)
    A = steiner.A_float
    loglik = mle.Likelihood(A, np.ones(steiner.n))
    V, W = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 4.0]]) @ A.T, np.array([[2.0, 1.0, 3.0]]) @ A.T
    part = ["direct"]
    with solver_bits.likelihood_work(mle, part) as work:
        loglik.hessian(V)  # its own logL is the iterates'
        loglik(V.copy())  # equal values, another array: a trial
        loglik.derivatives(W)
        loglik(W)  # the caller takes the iterates' logL
        loglik(W[:1])
    assert work == {"trial": {"direct": [2, 3]}, "iterate": {"direct": [2, 3]}}
    assert (mle.Likelihood.__call__, mle.Likelihood.hessian, mle.Likelihood.derivatives) == methods

    evaluated, called = [], []  # the form values of every Hessian evaluation and of every logL

    def derivatives(self, V, which=0):
        evaluated.append(V)
        return methods[2](self, V, which)

    def call(self, V, which=0):
        called.append(V)
        return methods[0](self, V, which)

    monkeypatch.setattr(mle.Likelihood, "derivatives", derivatives)
    monkeypatch.setattr(mle.Likelihood, "__call__", call)
    part[0] = "batch"
    with solver_bits.likelihood_work(mle, part) as work:
        mle.solve_all(steiner, [4, 3, 2, 1])
    iterates = [V for V in called if any(V is E for E in evaluated)]
    trials = [V for V in called if all(V is not E for E in evaluated)]
    assert work["iterate"]["batch"] == [len(iterates), sum(map(len, iterates))]
    assert work["trial"]["batch"] == [len(trials), sum(map(len, trials))]
    # The finish takes its logL; a pass whose rows are all found or flat takes none.
    assert 1 <= len(iterates) < len(evaluated) and trials
