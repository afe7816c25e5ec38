#!/usr/bin/env python3
"""sqlinear benchmark: seeded closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload exact-regions --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; it imports ``sqlinear`` from the
checkout's ``src/`` and nothing else. With ``--trace 0`` it times a fixed number
of whole cycles of jobs, sized so that they take about ``--seconds`` at the
commit that introduced the benchmark (see ``workloads.Workload``), and
reports the end-to-end metrics. With ``--trace 1`` it runs a fixed job
list under the outside-in tracer, and plainly before and after, and reports
the per-layer metrics and the tracing overhead. Every job's output is checked.

All times in the metrics are CPU seconds of this process and its children,
scaled to a reference host speed by a calibration timed right before and
after each piece of work (``stats.ScaledClock``): a fixed compute kernel for
in-process work, a bare interpreter start for CLI jobs and ``import_s``,
which run in child processes. On a quiet host the scaled times equal the
wall times. The # lines also give each run's wall time and raw CPU time.

Lines starting with ``#`` are the human-readable report; the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

from stats import REFERENCE_INTERPRETER_S, ScaledClock, interpreter_start, median, tail
from tracer import Tracer

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
IMPORT_REPEATS = 7

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def pin_environment():
    """One BLAS thread in this process and its children; the package's own
    thread knob is left unset, so ``solve_all`` runs sequentially. The
    process and its children stay on one CPU, so the calibration kernel of
    ``stats.ScaledClock`` runs where the work it scales ran."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SLM_THREADS", None)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_package():
    if not (SRC / "sqlinear" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sqlinear sources under {SRC.name}/ next to {HERE.name}/")
    sys.path.insert(0, str(SRC))
    import sqlinear

    if SRC not in Path(sqlinear.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported sqlinear from {sqlinear.__file__}, not from the checkout")
    return sqlinear


def child_clock():
    """Clock for work done in child processes: CLI jobs and ``import_s``."""
    return ScaledClock(interpreter_start, REFERENCE_INTERPRETER_S, repeats=1)


def job_clock(workload):
    return child_clock() if workload.child_processes else ScaledClock()


def run_job(job, reference, clock):
    """Time one job on ``clock``, then check it; returns (seconds, problems).

    A bundle's parts are timed one by one, so that the clock recalibrates
    between them, and its time is their sum."""
    parts = job.parts or (job,)
    label = (lambda part: f"{part.name}: ") if job.parts else (lambda part: "")
    elapsed, results = 0.0, []
    for part in parts:
        result, error, seconds = clock.call(part.run)
        elapsed += seconds
        if error is not None:  # a raising job is a failed job
            return elapsed, [f"{label(part)}raised {type(error).__name__}: {error}"]
        results.append(result)
    problems = []
    for part, result in zip(parts, results):
        problems.extend(label(part) + problem for problem in part.check(result))
        if part.key is None:
            continue
        expected = reference.get(part.key)
        if expected is None:
            problems.append(f"no reference recorded for {part.key}")
        else:
            problems.extend(part.compare(part.observe(result), expected))
    return elapsed, problems


def summarize(records):
    """Outcome counts over (job, seconds, problems) records."""
    failed = [(job, problems) for job, _, problems in records if problems]
    unexpected = [(job, problems) for job, problems in failed if not job.known_defect]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "correct": not unexpected,
        "failures": failed,
    }


def per_job_lines(records):
    by_name = {}
    for job, elapsed, problems in records:
        by_name.setdefault(job.name, []).append(elapsed)
    return [
        f"#   {name:<22} n={len(times):<4} p50={median(times):.4f} s"
        for name, times in sorted(by_name.items())
    ]


def failure_lines(outcome):
    lines = []
    for job, problems in outcome["failures"][:20]:
        tag = " [known defect]" if job.known_defect else ""
        lines.append(f"# FAIL {job.name}{tag}: {'; '.join(problems)[:300]}")
    return lines


def environment_line(np_version):
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    return "# env " + json.dumps(
        {
            "nproc": os.cpu_count(),
            "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np_version,
            "blas_threads": env,
            "SLM_THREADS": os.environ.get("SLM_THREADS", "unset"),
        }
    )


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_loop(cycles, reference, clock):
    records = []
    start = perf_counter()
    for cycle in cycles:
        for job in cycle:
            elapsed, problems = run_job(job, reference, clock)
            records.append((job, elapsed, problems))
    return records, perf_counter() - start


def end_to_end(workload, args, reference, work_dir):
    import workloads

    count = workload.cycles_for(args.seconds)
    clock = job_clock(workload)

    def set_up():
        cycles = workload.build(args.seed, count, work_dir, False)
        if workload.name == "cli":
            workloads.import_seconds(1, clock)  # compile the package's bytecode before timing
        return cycles

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cycles, error, elapsed = clock.call(set_up)
        if error is not None:
            raise error
        setup_times.append(elapsed)
    setup_report = clock.report()
    records, wall = timed_loop(cycles, reference, clock)
    import_clock = child_clock()
    imports = workloads.import_seconds(IMPORT_REPEATS, import_clock)
    times = [elapsed for _, elapsed, _ in records]
    outcome = summarize(records)
    tail_value, tail_pct, n = tail(times)
    ok = outcome["attempted"] - outcome["failed"]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "job_p50_s": (median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli"), "MB"),
        "import_s": (median(imports), "s"),
    }
    lines = [
        f"# workload {workload.name} seed {args.seed}: {n} jobs in {count} cycles, {wall:.1f} s wall "
        f"(closed loop, 1 client)",
        f"# set-up clock: {setup_report}",
        f"# run clock: {clock.report()}",
        f"# import clock: {import_clock.report()}",
        f"# job_tail_s is p{tail_pct:.1f} of {n} samples (10 or more samples above it)",
        f"# fail_ratio {outcome['failed'] / n:.4f} ({outcome['failed']} of {n} jobs failed)",
        f"# setup_s runs {[round(t, 4) for t in setup_times]}; import_s runs {[round(t, 4) for t in imports]}",
        "# per job name:",
        *per_job_lines(records),
        *failure_lines(outcome),
    ]
    return outcome, metrics, lines


def per_layer(workload, args, reference, work_dir):
    cycles = workload.build(args.seed, workload.trace_cycles, work_dir, True)
    jobs = [part for cycle in cycles for job in cycle for part in job.parts or (job,)]
    clock = ScaledClock()  # a traced run does all its work in this process, CLI jobs too
    plain = [(job, *run_job(job, reference, clock)) for job in jobs]
    tracer = Tracer()
    traced = []
    work = {}  # job name -> summed work counts
    with tracer:
        for job in jobs:
            before = tracer.work_counts()
            traced.append((job, *run_job(job, reference, clock)))
            totals = work.setdefault(job.name, dict.fromkeys(before, 0) | {"jobs": 0})
            totals["jobs"] += 1
            for key, value in tracer.work_counts().items():
                totals[key] += value - before[key]
    # Plain passes before and after the traced one, so warm-up is not read as overhead.
    plain += [(job, *run_job(job, reference, clock)) for job in jobs]
    outcome = summarize(traced)
    plain_outcome = summarize(plain)
    outcome["correct"] = outcome["correct"] and plain_outcome["correct"]
    metrics = dict(tracer.metrics())
    plain_p50 = median([elapsed for _, elapsed, _ in plain])
    traced_p50 = median([elapsed for _, elapsed, _ in traced])
    exit1 = sum(1 for job, _, problems in traced if any(p.startswith("exit code 1") for p in problems))
    metrics["cli.exit1_count"] = (exit1, "count")
    metrics["trace.job_p50_untraced_s"] = (plain_p50, "s")
    metrics["trace.job_p50_traced_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    lines = [
        f"# workload {workload.name} seed {args.seed}: traced run over a fixed list of {len(jobs)} jobs "
        f"({workload.trace_cycles} cycles)",
        f"# tracing overhead: job p50 {plain_p50:.4f} s plain (two passes), {traced_p50:.4f} s traced",
        "# per job name (traced):",
        *per_job_lines(traced),
        "# work per job:",
        *(
            f"#   {name:<22} " + " ".join(f"{key}={value / totals['jobs']:g}" for key, value in totals.items() if key != "jobs")
            for name, totals in sorted(work.items())
        ),
        *failure_lines(outcome),
    ]
    return outcome, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import_package()
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = workloads.load_reference()
    if not reference:
        raise SystemExit(f"perfbench: missing {workloads.REFERENCE_PATH.name}; run make_reference.py")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        outcome, metrics, lines = measure(workload, args, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    print(environment_line(numpy.__version__))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
