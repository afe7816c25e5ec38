#!/usr/bin/env python3
"""Record ``reference.json``: the observation of every pool input.

Run it at the commit whose outputs the benchmark should hold later commits
to (the references in the repository were recorded at the commit that
introduced the benchmark, on the unchanged library):

    python3 perfbench/make_reference.py [--workload NAME ...]

Existing entries of other workloads are kept. An input whose invariant
checks fail is reported and the script exits non-zero, so that no pool
member the benchmark relies on is already broken.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, pin_environment, import_package


def pool_cycles(name, work_dir):
    import workloads as w

    if name == "exact-regions":
        return w.setup_exact(0, w.EXACT_POOL)
    if name == "numeric-mle":
        return [w.mle_pool_jobs()]
    if name == "session":
        return w.setup_session(0, w.SESSION_POOL)
    return w.setup_cli(0, 1, work_dir)


def main(argv=None) -> int:
    pin_environment()
    import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    reference = workloads.load_reference()
    work_dir = ROOT / ".bench_work" / "reference"
    broken = 0
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            seen = set()
            for cycle in pool_cycles(name, work_dir):
                for job in (part for bundled in cycle for part in bundled.parts or (bundled,)):
                    if job.key is None or job.key in seen:
                        continue
                    seen.add(job.key)
                    try:
                        result = job.run()
                    except Exception as exc:
                        broken += 1
                        print(f"{job.key}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                        continue
                    problems = job.check(result)
                    if problems:
                        broken += 1
                        print(f"{job.key}: {'; '.join(problems)}", file=sys.stderr)
                    reference[job.key] = job.observe(result)
            print(f"{name}: {len(seen)} observations", file=sys.stderr)
            workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work_dir.parent, ignore_errors=True)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
