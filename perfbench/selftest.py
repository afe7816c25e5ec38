"""Self-tests of the benchmark itself (not of sqlinear).

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the repository's own test run does
not pick it up.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_package, pin_environment, run_job, summarize  # noqa: E402

pin_environment()
import_package()

import stats  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- tail percentile -----------------------------------------------------------


def test_tail_keeps_ten_samples_above():
    values = list(range(1, 101))  # 1..100
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_small_and_tied_samples():
    assert stats.tail(list(range(15))) == (4, 100 * 5 / 15, 15)
    assert stats.tail([7.0] * 11) == (7.0, 100 / 11, 11)
    assert stats.tail([3, 1, 2]) == (3, 100.0, 3)  # no percentile has ten above: the max, flagged


# -- the scaled clock --------------------------------------------------------------


def test_scaled_clock_divides_out_host_speed(monkeypatch):
    """On a host at half the reference speed the kernel takes twice as long,
    so one CPU second of work reads as half a reference second."""
    now = [0.0]
    slowdown = [2.0]

    def kernel():
        now[0] += slowdown[0] * stats.REFERENCE_KERNEL_S

    def work(cpu):
        now[0] += cpu
        return "done"

    monkeypatch.setattr(stats, "cpu_seconds", lambda: now[0])
    monkeypatch.setattr(stats, "calibration_kernel", kernel)
    clock = stats.ScaledClock()
    assert clock.call(lambda: work(1.0)) == ("done", None, pytest.approx(0.5))
    slowdown[0] = 1.0  # the host speeds up during the next job: the mean of the probes around it counts
    assert clock.call(lambda: work(1.5))[2] == pytest.approx(1.5 / 1.5)

    def broken():
        now[0] += 0.25
        raise ValueError("boom")

    result, error, seconds = clock.call(broken)
    assert result is None and isinstance(error, ValueError) and seconds == pytest.approx(0.25)
    assert (clock.cpu_s, clock.scaled_s) == (pytest.approx(2.75), pytest.approx(1.75))


# -- self time on nested spans --------------------------------------------------


@pytest.fixture()
def fake_package(tmp_path, monkeypatch):
    """A two-layer package on a fake clock: outer spends 2 + 1 units itself
    and calls inner (3 units) through a from-import, twice through a helper."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .outer import outer\n")
    (pkg / "clock.py").write_text("now = [0.0]\n")
    (pkg / "inner.py").write_text(
        textwrap.dedent(
            """
            from .clock import now

            def inner():
                now[0] += 3.0
                return "inner"
            """
        )
    )
    (pkg / "outer.py").write_text(
        textwrap.dedent(
            """
            from .clock import now
            from .inner import inner

            def outer():
                now[0] += 2.0
                inner()
                now[0] += 1.0
                return "outer"
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg  # noqa: F401
    from fakepkg import clock

    monkeypatch.setattr(tracer_module, "perf_counter", lambda: clock.now[0])
    yield
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_self_time_subtracts_direct_children(fake_package):
    import fakepkg

    with Tracer(package="fakepkg", layers=("outer", "inner")) as t:
        assert fakepkg.outer() == "outer"
        assert fakepkg.outer() == "outer"
    outer = t.stats[("outer", "outer")]
    inner = t.stats[("inner", "inner")]
    assert (outer.calls, outer.total, outer.self_time) == (2, 12.0, 6.0)
    assert (inner.calls, inner.total, inner.self_time) == (2, 6.0, 6.0)
    metrics = t.metrics()
    assert metrics["outer.self_s"] == (6.0, "s") and metrics["inner.self_s"] == (6.0, "s")


# -- rebinding and restoring ---------------------------------------------------------


def _sqlinear_globals():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "sqlinear" or name.startswith("sqlinear."))
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_every_importer_and_restores():
    import sqlinear
    import sqlinear.cli  # noqa: F401 - the tracer imports every layer; take the snapshot after
    from sqlinear import arrangement, catalog, model, simplex

    before = _sqlinear_globals()
    a_float = model.SquaredLinearModel.__dict__["A_float"]
    lp = simplex.feasible_point
    assert arrangement.feasible_point is lp
    with Tracer() as t:
        assert arrangement.feasible_point is simplex.feasible_point is not lp
        assert sqlinear.enumerate_regions is arrangement.enumerate_regions
        assert sqlinear.enumerate_regions.__wrapped__ is before[("sqlinear.arrangement", "enumerate_regions")]
        steiner = model.make_model(catalog.steiner_arrangement())
        regions = sqlinear.enumerate_regions(steiner.arr)
        steiner.A_float
    assert _sqlinear_globals() == before
    assert model.SquaredLinearModel.__dict__["A_float"] is a_float
    metrics = t.metrics()
    assert metrics["arrangement.enumerate_calls"][0] == 1
    assert metrics["arrangement.regions_out"][0] == len(regions) == 7
    assert metrics["simplex.lp_calls"][0] > 0
    assert metrics["model.A_float_builds"][0] == 1


# -- layer isolation of the workloads ------------------------------------------------


def _traced(jobs):
    reference = workloads.load_reference()
    with Tracer() as t:
        for job in jobs:
            result = job.run()
            assert job.check(result) == []
            if job.key in reference:
                assert job.compare(job.observe(result), reference[job.key]) == []
    return t.metrics()


def test_numeric_mle_timed_loop_runs_no_lp():
    cycle = workloads.setup_mle(5, 1)[0]
    metrics = _traced(cycle)
    assert metrics["simplex.lp_calls"][0] == 0
    assert metrics["arrangement.enumerate_calls"][0] == 0
    assert metrics["mle.solve_all_calls"][0] == 3
    assert metrics["mle.newton_iters"][0] > 0


def test_exact_regions_runs_no_model_code():
    (five_shapes,) = workloads.setup_exact(5, 1)[0]
    metrics = _traced([job for job in five_shapes.parts if job.name in ("3x8", "dpp5")])
    assert metrics["simplex.lp_calls"][0] > 0
    for name in ("model.gradient_calls", "model.hessian_calls", "model.loglik_calls", "model.A_float_builds"):
        assert metrics[name][0] == 0, name
    assert metrics["mle.solve_all_calls"][0] == 0


# -- outcome accounting and the bare-directory rule ------------------------------------


def test_known_defects_fail_without_making_the_run_incorrect():
    known = workloads.Job("bad", None, None, None, known_defect="crashes today")
    plain = workloads.Job("ok", None, None, None)
    outcome = summarize([(known, 0.1, ["exit code 1"]), (plain, 0.1, [])])
    assert (outcome["attempted"], outcome["failed"], outcome["correct"]) == (2, 1, True)
    outcome = summarize([(plain, 0.1, ["wrong answer"])])
    assert (outcome["failed"], outcome["correct"]) == (1, False)


def test_bundle_checks_every_part_against_its_reference():
    def part(name, value):
        def check(result):
            return [] if result > 0 else ["not positive"]

        return workloads.Job(name, f"ref/{name}", lambda: value, check, observe=lambda result: result)

    job = workloads.bundle("both", [part("a", 1), part("b", 2)])
    assert run_job(job, {"ref/a": 1, "ref/b": 2}, stats.CpuClock())[1] == []
    assert run_job(job, {"ref/a": 1, "ref/b": 3}, stats.CpuClock())[1] == ["2 differs from reference 3"]
    assert run_job(job, {"ref/a": 1}, stats.CpuClock())[1] == ["no reference recorded for ref/b"]
    assert run_job(workloads.bundle("neg", [part("c", -1)]), {"ref/c": -1}, stats.CpuClock())[1] == ["c: not positive"]
    raising = workloads.Job("d", None, lambda: 1 / 0, None)
    assert run_job(workloads.bundle("div", [part("a", 1), raising]), {"ref/a": 1}, stats.CpuClock())[1] == [
        "d: raised ZeroDivisionError: division by zero"
    ]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
