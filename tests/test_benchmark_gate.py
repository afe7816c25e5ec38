"""The benchmark's correctness verdict, replayed in the test run.

perfbench holds every pool input's recorded observation in
``perfbench/reference.json`` and calls a run incorrect when a job raises,
breaks an invariant check or differs from its reference beyond the stated
tolerances. Each test here rebuilds one workload's pool the way
``perfbench/make_reference.py`` does, runs every job through
``run.run_job`` on a CPU clock and asserts the verdict ``summarize`` gives,
so a change to an output the benchmark holds fails here first. The CLI pool
runs in this process. The environment is left unpinned: nothing is timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("run", "stats", "tracer", "workloads")


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run``, ``stats`` and ``workloads`` modules, imported as
    perfbench/selftest.py does; sys.path and sys.modules are put back after."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        import run

        run.import_package()
        import stats
        import workloads

        yield run, stats, workloads
    finally:
        sys.path[:] = saved
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def pool(workloads, name, work_dir):
    if name == "exact-regions":
        return workloads.setup_exact(0, workloads.EXACT_POOL)
    if name == "numeric-mle":
        return [workloads.mle_pool_jobs()]
    if name == "session":
        return workloads.setup_session(0, workloads.SESSION_POOL)
    return workloads.setup_cli(0, 1, work_dir, inprocess=True)


@pytest.mark.parametrize("name", ["exact-regions", "numeric-mle", "session", "cli"])
def test_pool_matches_the_benchmark_reference(bench, name, tmp_path):
    """Every recorded input of the workload is replayed once, each part of a
    bundle on its own as make_reference.py records it, and the run is
    correct."""
    run, stats, workloads = bench
    reference, clock = workloads.load_reference(), stats.CpuClock()
    jobs = {}
    for cycle in pool(workloads, name, tmp_path):
        for job in (part for bundled in cycle for part in bundled.parts or (bundled,)):
            if job.key is not None:
                jobs.setdefault(job.key, job)
    assert sorted(jobs) == sorted(key for key in reference if key.startswith(f"{name}/"))
    records = [(job, *run.run_job(job, reference, clock)) for job in jobs.values()]
    summary = run.summarize(records)
    unexpected = [
        f"{name}: {job.key}: {problem}"
        for job, problems in summary["failures"]
        if not job.known_defect
        for problem in problems
    ]
    assert summary["correct"], "\n".join(unexpected)
