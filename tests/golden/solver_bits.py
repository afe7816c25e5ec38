"""Record the Newton batch's outcomes bit for bit, and compare two records.

    python tests/golden/solver_bits.py record OUT
    python tests/golden/solver_bits.py compare A B

``record`` wraps ``sqlinear.mle._solve_batch`` and runs it over a fixed
sweep: every job of perfbench's ``numeric-mle`` pool, 16 ``session``
cycles (``setup_session(1, 16)``), and three seeded draws of
``random_arrangement(d, n, rng, -99, 99)`` for each shape in ``SHAPES``,
each solved at data eps^w (w_i in 0..3) for every eps in ``EPS`` and at two
integer data vectors in one batch. Each outcome is stored as two strings:
its path (the bytes of x, y and p; grad_norm, iterations and
hessian_max_eig; a failure's type, message and trace) and its logL, both
with floats in hex. The record also holds ``mle_index`` of braid(4),
braid(5) and Steiner at uniform data, and the likelihood work of each
sweep part (``numeric-mle``, ``session`` and the seeded ``draws``): the
calls of ``Likelihood.__call__`` and the rows they evaluate, as trial work
and, apart from it, as iterate work, the calls on the form values that
the last Hessian evaluation read (:func:`likelihood_work`). For each
seeded draw it holds the sha256 of its regions (each sign string and ray)
and of its chi coefficients, the exact inputs of its batches.

``compare`` first prints the draws whose regions or chi differ, since a
moved ray moves every start of its draw; a record without these digests
is reported as such. It then prints the outcomes whose path differs, the
count of logL differences with the largest in ulps, and any moved
``mle_index``. It exits 1 when a draw's regions or chi or an outcome's
path differ, or the two sweeps do not line up. When paths differ it
also prints the outcomes whose region or found/failed state differs, the
largest relative difference in x of the points found on both sides (max
|x_a - x_b| over max |x_a|), and each side's total and mean iterations over
its found points, which tell a moved start from a moved answer. It always
prints both sides' trial and iterate likelihood work per sweep part, each side's
count of found points whose ``hessian_max_eig`` is not negative, and each
side's failures by reason: the failure's message with its numbers masked
as ``#``, read from its path.

Run one checkout's copy of this script against that checkout: perfbench's
pools are read as ``tests/test_benchmark_gate.py`` reads them, from the
``perfbench/`` and ``src/`` next to this ``tests/``. OpenBLAS is held to one
thread, since its threaded kernels may round otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import struct
import sys
from array import array
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[2]
SHAPES = ((3, 8), (3, 12), (4, 9), (4, 12), (4, 16), (3, 16), (3, 20), (5, 16), (5, 20))
EPS = (0.1, 10**-2.5, 1e-4)
TOL = 1e-10


def _hex(value):
    return float(value).hex()


def _path(out, found):
    """Everything of one outcome but its logL, as one string; ``found``
    tells a CriticalPoint from a failure."""
    if found:
        arrays = " ".join(a.tobytes().hex() for a in (out.x, out.y, out.p))
        return f"{out.region} {arrays} {_hex(out.grad_norm)} {out.iterations} {_hex(out.hessian_max_eig)}"
    trace = [(k, _hex(v)) for k, v in out.trace]
    return f"{type(out).__name__}: {out} {trace}"


def _draws():
    """(label, model, regions, batches) for the seeded draws, each batch a
    list of data vectors solved together."""
    import numpy as np

    from sqlinear import catalog
    from sqlinear.arrangement import enumerate_regions
    from sqlinear.model import make_model

    for d, n in SHAPES:
        for k in range(3):
            rng = random.Random(f"solver-bits/{d}x{n}/{k}")
            model = make_model(catalog.random_arrangement(d, n, rng, -99, 99))
            w = np.array([rng.randint(0, 3) for _ in range(n)], dtype=float)
            pair = [[float(rng.randint(1, 50)) for _ in range(n)] for _ in range(2)]
            yield f"{d}x{n}/{k}", model, enumerate_regions(model.arr), [[eps**w] for eps in EPS] + [pair]


def _exact(model, regions):
    """sha256 of a draw's regions, each sign string and ray, and of its chi coefficients."""
    from sqlinear.arrangement import characteristic_polynomial

    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    chi = characteristic_polynomial(model.arr).coeffs
    return {"regions": digest([(str(r.sign), r.ray) for r in regions]), "chi": digest(chi)}


@contextlib.contextmanager
def likelihood_work(mle, part):
    """Count, while active, the calls of ``mle.Likelihood.__call__`` and the
    rows they evaluate, per sweep part ``part[0]``. Yields {"trial": {},
    "iterate": {}}, each mapping a part to [calls, rows]: a call on the form
    values that the last Hessian evaluation read (``hessian`` or
    ``derivatives``) is the iterates' logL, any other call a trial's. The
    split does not depend on whether ``hessian`` or the Newton pass takes
    the iterates' logL, so both sides of a compare count the same trials;
    a checkout whose ``Likelihood`` has no ``derivatives`` is counted by
    ``hessian`` alone."""
    work = {"trial": {}, "iterate": {}}
    cls, last = mle.Likelihood, [None]
    saved = {name: getattr(cls, name) for name in ("__call__", "hessian", "derivatives") if hasattr(cls, name)}
    call = saved["__call__"]

    def counted_call(self, V, which=0):
        total = work["iterate" if V is last[0] else "trial"].setdefault(part[0], [0, 0])
        total[0] += 1
        total[1] += len(V)
        return call(self, V, which)

    def noted(method):
        def evaluate(self, V, which=0):
            last[0] = V
            return method(self, V, which)

        return evaluate

    cls.__call__ = counted_call
    for name in saved.keys() - {"__call__"}:
        setattr(cls, name, noted(saved[name]))
    try:
        yield work
    finally:
        for name, method in saved.items():
            setattr(cls, name, method)


def record(out_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.import_package()
    import numpy as np
    import workloads

    from sqlinear import catalog, mle
    from sqlinear.model import make_model

    outcomes = []  # [label, path, logL hex or None]
    exact = {}  # draw label -> sha256 of its regions and of its chi
    solve_batch, label, part = mle._solve_batch, [""], [""]

    def recorded(*args, **kwargs):
        rows = solve_batch(*args, **kwargs)
        for k, row in enumerate(rows):
            for r, out in enumerate(row):
                found = isinstance(out, mle.CriticalPoint)
                logL = _hex(out.logL) if found else None
                outcomes.append([f"{label[0]} #{len(outcomes)} data {k} region {r}", _path(out, found), logL])
        return rows

    mle._solve_batch = recorded
    try:
        with likelihood_work(mle, part) as work:
            label[0] = part[0] = "numeric-mle"
            for job in workloads.mle_pool_jobs():
                job.run()
            label[0] = part[0] = "session"
            for cycle in workloads.setup_session(1, 16):
                for bundled in cycle:
                    for job in bundled.parts or (bundled,):
                        job.run()
            part[0] = "draws"
            for name, model, regions, batches in _draws():
                label[0] = name
                exact[name] = _exact(model, regions)
                for data in batches:
                    mle._solve_batch(model, data, regions, TOL)
    finally:
        mle._solve_batch = solve_batch
    uniform = {
        name: mle.solve_all(make_model(arr), np.ones(arr.n)).mle_index
        for name, arr in (
            ("braid4", catalog.braid_arrangement(4)),
            ("braid5", catalog.braid_arrangement(5)),
            ("steiner", catalog.steiner_arrangement()),
        )
    }
    Path(out_path).write_text(
        json.dumps(
            {
                "outcomes": outcomes,
                "uniform_mle_index": uniform,
                "work": work["trial"],
                "iterate_work": work["iterate"],
                "exact": exact,
            }
        )
    )
    failures = sum(logL is None for _, _, logL in outcomes)
    print(f"{len(outcomes)} outcomes ({failures} failures); uniform-data mle_index {uniform}")
    for kind, parts in work.items():
        for name, (calls, rows) in parts.items():
            print(f"{kind} likelihood work {name}: {calls} calls, {rows} rows")


def _ordered(value):
    """The double's bits as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _point(path):
    """(region, x, iterations) of a found outcome's path."""
    region, x, _, _, _, iterations, _ = path.split(" ")
    return region, array("d", bytes.fromhex(x)), int(iterations)


def _moved_points(old, new):
    """The outcomes whose region or found/failed state differs, the largest
    relative x difference of the points found in the same region on both
    sides, and each side's [iterations, found points]."""
    moved, largest, totals = [], 0.0, [[0, 0], [0, 0]]
    for (label, path, logL), (_, other_path, other_logL) in zip(old, new):
        a, b = (_point(p) if found is not None else None for p, found in ((path, logL), (other_path, other_logL)))
        for total, point in zip(totals, (a, b)):
            if point:
                total[0] += point[2]
                total[1] += 1
        if (a is None) != (b is None) or a and a[0] != b[0]:
            moved.append(label)
        elif a:
            largest = max(largest, max(abs(u - v) for u, v in zip(a[1], b[1])) / max(map(abs, a[1])))
    return moved, largest, totals


def _not_maxima(outcomes):
    """How many found points have a hessian_max_eig that is not negative."""
    return sum(logL is not None and not float.fromhex(path.rsplit(" ", 1)[1]) < 0.0 for _, path, logL in outcomes)


def _reasons(outcomes):
    """How many failures each masked message has, most first."""
    counts = {}
    for _, path, logL in outcomes:
        if logL is None:
            message = path.split(": ", 1)[1].rsplit(" [", 1)[0]
            reason = re.sub(r"-?\b(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf)\b", "#", message)
            counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def _exact_differences(a, b):
    """'draw part' for each draw whose regions or chi digest differs, or
    None when a record holds no digests."""
    if "exact" not in a or "exact" not in b:
        return None
    old, new = a["exact"], b["exact"]
    return [
        f"{name} {part}"
        for name in dict.fromkeys([*old, *new])
        for part in ("regions", "chi")
        if old.get(name, {}).get(part) != new.get(name, {}).get(part)
    ]


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    old, new = a["outcomes"], b["outcomes"]
    exact = _exact_differences(a, b)
    if exact is None:
        print("regions and chi digests: not recorded on both sides")
    else:
        for moved in exact:
            print(f"regions or chi differ: {moved}")
        print(f"{len(a['exact'])} draws: {len(exact)} regions or chi differences")
    paths, logls = [], []
    for (label, path, logL), (other_label, other_path, other_logL) in zip(old, new):
        if label != other_label or path != other_path:
            paths.append(label if label == other_label else f"{label} / {other_label}")
        elif logL != other_logL:
            ulps = abs(_ordered(float.fromhex(logL)) - _ordered(float.fromhex(other_logL)))
            logls.append((ulps, label))
    for label in paths[:20]:
        print(f"path differs: {label}")
    if len(old) != len(new):
        print(f"outcome counts differ: {len(old)} against {len(new)}")
    print(f"{len(old)} outcomes: {len(paths)} path differences, {len(logls)} logL differences", end="")
    print(f", largest {max(logls)[0]} ulps ({max(logls)[1]})" if logls else "")
    if paths:
        moved, largest, totals = _moved_points(old, new)
        for label in moved[:20]:
            print(f"region or found/failed state differs: {label}")
        print(f"{len(moved)} outcomes change region or found/failed state; largest relative x difference {largest:.3e}")
        (a_iters, a_found), (b_iters, b_found) = totals
        print(f"iterations {a_iters} over {a_found} found ({a_iters / max(a_found, 1):.4f} each)", end="")
        print(f" against {b_iters} over {b_found} ({b_iters / max(b_found, 1):.4f} each)")
    for name, index in a["uniform_mle_index"].items():
        moved = b["uniform_mle_index"].get(name)
        print(f"uniform-data mle_index {name}: {index}" + ("" if moved == index else f" -> {moved}"))
    for kind, key in (("trial", "work"), ("iterate", "iterate_work")):
        works = a.get(key, {}), b.get(key, {})
        for name in dict.fromkeys([*works[0], *works[1]]):
            sides = (f"{w[name][0]} calls, {w[name][1]} rows" if name in w else "not recorded" for w in works)
            print(f"{kind} likelihood work {name}: {' against '.join(sides)}")
    print(f"found points whose hessian_max_eig is not negative: {_not_maxima(old)} against {_not_maxima(new)}")
    reasons = _reasons(old), _reasons(new)
    print(f"failures: {sum(reasons[0].values())} against {sum(reasons[1].values())}")
    for reason in dict.fromkeys([*reasons[0], *reasons[1]]):
        print(f"failures {reason!r}: {reasons[0].get(reason, 0)} against {reasons[1].get(reason, 0)}")
    return 1 if exact or paths or len(old) != len(new) else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "record":
        record(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
