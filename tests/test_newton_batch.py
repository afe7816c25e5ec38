"""Differential tests: the batched Newton solver against the per-region oracle,
and the batch against itself.

Both solvers make the same decisions per region, with the same ridge rule,
but the batch sums in another order, so iterates agree to roundoff rather
than bit for bit. Converged points must agree to 1e-9 in x and take the same
number of iterations, the MLE must sit in the same region, and on the
catalog models the same regions must fail. Path tracking must round to the
same valuations, with slopes agreeing to 1e-6.

Within the batch, a row's answer depends only on its own data, region and
start: a region solved alone, or one data vector solved apart from the
others, gives the same point bit for bit. That holds also for the Newton
step, which tests each row's Hessian by Cholesky, gives only the rows that
fail the test their eigenvalues and a ridge, and solves every row's system
in one call: its steps match the eigendecomposition's step that the batch
used to take (``newton_oracle.eigen_step``), and a singular system fails
its own row alone.

The line search starts each row at TO_WALL of the way to the nearest
hyperplane its Newton step heads for, and takes the logL of a trial only
when it keeps the signs and its row is neither found nor flat; a tracking
step, whose Newton steps overshoot a wall, evaluates at most half a trial
row per row-iteration. A step that descends on a Hessian that passed the
Cholesky test, and a found point whose chart Hessian is not negative
definite, fail their rows.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

import newton_oracle as oracle
from sqlinear import catalog, mle
from sqlinear.arrangement import Arrangement, SignVector, characteristic_polynomial, enumerate_regions
from sqlinear.degeneration import TropicalData, estimate_valuations
from sqlinear.errors import NoConvergence
from sqlinear.mle import CriticalPoint, _solve_batch, solve_all
from sqlinear.model import make_model

CATALOG = {
    "steiner": catalog.steiner_arrangement,
    "braid4": lambda: catalog.braid_arrangement(4),
    "braid5": lambda: catalog.braid_arrangement(5),
    "four_points": catalog.four_points_arrangement,
    "six_points": catalog.six_points_arrangement,
}


def compare_solves(model, data, same_failures):
    regions = enumerate_regions(model.arr)
    for s in data:
        batch = solve_all(model, s, regions=regions)
        loop = oracle.solve_all(model, s, regions=regions)
        by_region = {p.region: p for p in loop.points}
        both = [p for p in batch.points if p.region in by_region]
        assert both, "no region solved by both"
        for point in both:
            other = by_region[point.region]
            assert np.abs(point.x - other.x).max() <= 1e-9, point.region
            assert point.iterations == other.iterations, point.region
            assert point.hessian_max_eig == pytest.approx(other.hessian_max_eig, rel=1e-6)
        assert batch.mle.region == loop.mle.region
        if same_failures:
            assert [r for r, _ in batch.failures] == [r for r, _ in loop.failures]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_solves_match_oracle(name):
    model = make_model(CATALOG[name]())
    rng = np.random.default_rng(7)
    compare_solves(model, rng.uniform(0.05, 1.0, size=(2, model.n)), same_failures=True)


@pytest.mark.parametrize("d, n", [(3, 6), (4, 7), (4, 9)])
def test_random_arrangement_solves_match_oracle(d, n):
    pyrng = random.Random(f"batch/{d}x{n}")
    rng = np.random.default_rng(d * 100 + n)
    for _ in range(2 if n < 7 else 1):
        model = make_model(catalog.random_arrangement(d, n, pyrng))
        data = rng.uniform(0.05, 1.0, size=(2, n))
        data[1] *= 40.0  # larger totals reach the roundoff floor sooner
        compare_solves(model, data, same_failures=False)


def test_stacked_data_rows_match_separate_solves():
    """One batch holds k data vectors on a random (4,9), each (data vector,
    region) pair started from that region's critical point for other data.
    Every row takes the iterations of a separate one-vector batch from the
    same starts and lands on its x, y, p, logL, gradient norm and top
    eigenvalue bit for bit, which pins that rows and starts go data vector
    by data vector, that no row sees its neighbours, and that the one
    broadcast data vector of a one-vector batch computes what each row's
    gathered data vector does; each data vector converges in all
    |chi(-1)|/2 regions, to the local max that a witness-started solve_all
    finds."""
    model = make_model(catalog.random_arrangement(4, 9, random.Random("batch/stacked")))
    regions = enumerate_regions(model.arr)
    chi = characteristic_polynomial(model.arr)
    rng = np.random.default_rng(49)
    data = rng.uniform(0.05, 1.0, size=(5, model.n))
    data[1] *= 40.0
    data[3] = np.arange(1.0, model.n + 1)
    warm = rng.uniform(0.05, 1.0, size=(5, model.n))
    starts = [[p.x for p in solve_all(model, s, regions=regions).points] for s in warm]
    assert all(len(row) == len(regions) for row in starts)
    rows = _solve_batch(model, data, regions, 1e-10, starts)
    assert len(rows) == len(data)
    for s, row, start in zip(data, rows, starts):
        assert all(isinstance(p, CriticalPoint) for p in row)
        assert len(row) == abs(chi(-1)) // 2
        (alone,) = _solve_batch(model, [s], regions, 1e-10, [start])
        separate = solve_all(model, s, regions=regions)
        assert not separate.failures
        for point, other, witnessed in zip(row, alone, separate.points):
            assert point.region == other.region == witnessed.region
            assert point.iterations == other.iterations
            for name in ("x", "y", "p"):
                assert getattr(point, name).tobytes() == getattr(other, name).tobytes(), name
            for name in ("logL", "grad_norm", "hessian_max_eig"):
                assert getattr(point, name).hex() == getattr(other, name).hex(), name
            assert point.hessian_max_eig < 0.0
            assert np.abs(point.x - witnessed.x).max() <= 1e-9
            assert point.logL == pytest.approx(witnessed.logL, rel=1e-12)


def test_regions_as_starts_are_the_cold_batch():
    """A Region among the starts stands for its witness: two data vectors
    started from every region as given starts solve bit for bit as the
    batch without starts."""
    model = make_model(catalog.random_arrangement(4, 9, random.Random("batch/stacked")))
    regions = enumerate_regions(model.arr)
    data = np.random.default_rng(50).uniform(0.05, 1.0, size=(2, model.n))
    cold = _solve_batch(model, data, regions, 1e-10)
    given = _solve_batch(model, data, regions, 1e-10, [regions, regions])
    points = [(p, q) for row, other in zip(cold, given, strict=True) for p, q in zip(row, other, strict=True)]
    assert all(isinstance(p, CriticalPoint) for pair in points for p in pair)
    for p, q in points:
        assert p.region == q.region and p.iterations == q.iterations
        for name in ("x", "y", "p", "logL", "grad_norm", "hessian_max_eig"):
            assert np.array(getattr(p, name)).tobytes() == np.array(getattr(q, name)).tobytes(), name


@pytest.mark.parametrize("n", [4, 9, 16, 20])
def test_each_rows_logl_reads_only_its_own_data_vector(n):
    """A row's logL, from __call__ and from hessian, is bit for bit the
    same whether its data vector rides alone or with K - 1 others, K up to
    21, in shuffled row order, with one to four rows per data vector: each
    row reads its own data vector alone, so nothing the others hold moves
    its rounding, also from n = 16 on."""
    rng = np.random.default_rng(4400 + n)
    A = rng.uniform(-1.0, 1.0, size=(n, 3))
    S = rng.uniform(0.05, 50.0, size=(21, n))
    for K in (2, 7, 21):
        which = np.repeat(np.arange(K), 1 + np.arange(K) % 4)
        rng.shuffle(which)
        V = rng.uniform(-1.0, 1.0, size=(len(which), 3)) @ A.T
        loglik = mle.Likelihood(A, S[:K])
        together, from_hessian = loglik(V, which), loglik.hessian(V, which)[0]
        for k in range(K):
            mine = which == k
            alone = mle.Likelihood(A, S[k])
            assert together[mine].tobytes() == alone(V[mine]).tobytes(), (K, k)
            assert from_hessian[mine].tobytes() == alone.hessian(V[mine])[0].tobytes(), (K, k)


def test_likelihood_memory_grows_with_rows_not_with_rows_times_data_vectors():
    """A log-Voronoi scan of K samples asks logL of K rows per region. On
    the four-points model with 2000 data vectors and 4 rows each, one call
    peaks below 2 MB under tracemalloc; a (rows, K) product would take
    8000 x 2000 doubles, 128 MB."""
    import tracemalloc

    model = make_model(catalog.four_points_arrangement())
    rng = np.random.default_rng(2000)
    loglik = mle.Likelihood(model.A_float, rng.uniform(0.05, 1.0, size=(2000, model.n)))
    which = np.repeat(np.arange(2000), 4)
    V = rng.uniform(-1.0, 1.0, size=(len(which), model.d)) @ model.A_float.T
    tracemalloc.start()
    try:
        loglik(V, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_voronoi_scan_memory_keeps_no_per_row_iteration_history():
    """A 2000-step log-Voronoi scan of the four-points model along Example
    6.5's segment solves 8,004 rows in one batch. The batch keeps each
    pass's decrements for its running rows only; an (N, MAX_ITER) history
    alone would be 8,004 x 200 doubles, 12.8 MB, and the scan then peaks
    near 20 MB under tracemalloc, against about 8 MB without it."""
    import tracemalloc
    from fractions import Fraction

    from sqlinear.geometry import log_voronoi_scan

    y = (3, 2, 1, -1)
    model = make_model(catalog.four_points_arrangement())
    start = tuple(Fraction(v * v, sum(w * w for w in y)) for v in y)
    target = (0, Fraction(12, 25), Fraction(4, 25), Fraction(9, 25))  # 2/5 and 3/5 of two polytope vertices
    end = tuple(s + Fraction(9, 10) * (t - s) for s, t in zip(start, target))
    tracemalloc.start()
    try:
        profile = log_voronoi_scan(model, y, start, end, steps=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [tags for _, *tags in profile.crossings] == [["+++-", "++++"]]
    assert peak < 12 * 2**20


@pytest.mark.parametrize("d, n", [(3, 7), (4, 8)])
def test_one_region_alone_is_its_row_of_solve_all(d, n):
    """A region solved alone runs a one-row batch, and a block of seven
    regions a 7-row batch; with n < 16 each point equals that region's point
    in solve_all bit for bit, also where solve_all leaves one row running
    (mle._product says why not from n = 16 on)."""
    model = make_model(catalog.random_arrangement(d, n, random.Random(f"alone/{d}x{n}")))
    regions = enumerate_regions(model.arr)
    s = np.random.default_rng(d * 100 + n).uniform(0.05, 1.0, size=n)
    everything = solve_all(model, s, regions=regions)
    assert not everything.failures
    for size in (1, 7):
        blocks = [regions[i : i + size] for i in range(0, len(regions), size)]
        points = [point for block in blocks for point in solve_all(model, s, regions=block).points]
        for region, point, other in zip(regions, everything.points, points, strict=True):
            for name in ("x", "y", "p"):
                assert np.array_equal(getattr(other, name), getattr(point, name)), (size, region.sign, name)
            for name in ("logL", "grad_norm", "iterations", "hessian_max_eig"):
                assert getattr(other, name) == getattr(point, name), (size, region.sign, name)


def test_ridged_row_beside_definite_rows_is_its_own_solve(steiner, monkeypatch):
    """Only rows that fail the Cholesky test get their eigenvalues, and a
    pass whose rows all pass it calls no eigenvalue routine. On Steiner with
    s = (50, 1, 45, 29) each of the nine passes makes one stacked Cholesky
    call and one stacked solve; the Cholesky factor comes back NaN in the
    first pass only, for one row of seven, and the eigenvalue call then sees
    that row alone; the finish's call for the top chart eigenvalue is the
    only other. Each region of that batch still equals its one-region solve
    bit for bit, which a ridge that moved its neighbours' rows would break."""
    s = [50, 1, 45, 29]
    regions = enumerate_regions(steiner.arr)
    lapack = mle._umath_linalg
    derivatives = mle.Likelihood.derivatives
    passes = []  # per Hessian evaluation, its LAPACK calls: (name, rows, NaN rows or lowest eigenvalues)

    def spied_derivatives(self, V, which=0):
        passes.append([])
        return derivatives(self, V, which)

    def spied_cholesky_lo(a, signature):
        factor = lapack.cholesky_lo(a, signature=signature)
        passes[-1].append(("cholesky_lo", len(a), int(np.isnan(factor).any(axis=(1, 2)).sum())))
        return factor

    def spied_eigvalsh_lo(a, signature):
        lam = lapack.eigvalsh_lo(a, signature=signature)
        passes[-1].append(("eigvalsh_lo", len(a), lam[:, 0].tolist()))
        return lam

    def spied_solve(a, b, signature):
        step = lapack.solve(a, b, signature=signature)
        passes[-1].append(("solve", len(a), int(np.isnan(step).any(axis=(1, 2)).sum())))
        return step

    spies = SimpleNamespace(cholesky_lo=spied_cholesky_lo, eigvalsh_lo=spied_eigvalsh_lo, solve=spied_solve)
    monkeypatch.setattr(mle.Likelihood, "derivatives", spied_derivatives)
    monkeypatch.setattr(mle, "_umath_linalg", spies)
    everything = solve_all(steiner, s, regions=regions)
    monkeypatch.undo()
    *newton, finish = passes
    assert len(newton) == 9 and len(regions) == 7
    first, *rest = newton
    ((low,),) = [lows for name, rows, lows in first if name == "eigvalsh_lo"]
    assert low <= 0.0
    assert first == [("cholesky_lo", 7, 1), ("eigvalsh_lo", 1, [low]), ("solve", 7, 0)]
    assert all([(name, nan) for name, _, nan in calls] == [("cholesky_lo", 0), ("solve", 0)] for calls in rest)
    assert [(name, rows) for name, rows, _ in finish] == [("eigvalsh_lo", 7)]
    assert not everything.failures
    for region, point in zip(regions, everything.points):
        (alone,) = solve_all(steiner, s, regions=[region]).points
        for name in ("x", "y"):
            assert np.array_equal(getattr(alone, name), getattr(point, name)), (region.sign, name)
        for name in ("logL", "iterations", "hessian_max_eig"):
            assert getattr(alone, name) == getattr(point, name), (region.sign, name)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_step_matches_the_eigen_step(m):
    """The Cholesky test and one batched solve give the eigendecomposition's
    step: on random free Hessians, negative definite with eigenvalues over
    four decades or with one to m of them flipped, the ridged rows are the
    indefinite ones, both ways, and the steps agree within 1e-10 relative. A
    row gives the same bits alone as in the stack."""
    rng = np.random.default_rng(2900 + m)
    R = 40
    Q = np.linalg.qr(rng.normal(size=(R, m, m)))[0]
    lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(R, m)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(R, 1))
    indefinite = np.arange(R) % 2 == 1
    for r in indefinite.nonzero()[0]:
        lam[r, rng.permutation(m)[: rng.integers(1, m + 1)]] *= -1.0
    H = -np.einsum("rij,rj,rkj->rik", Q, lam, Q)
    H = (H + H.transpose(0, 2, 1)) / 2.0
    g = rng.normal(size=(R, m))
    step, slope, ridged = mle._newton_step(g, H)
    expected, eigen_ridged = oracle.eigen_step(H, g)
    assert np.array_equal(ridged, indefinite) and np.array_equal(eigen_ridged, indefinite)
    error = np.linalg.norm(step - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert error.max() <= 1e-10
    assert np.array_equal(slope, np.einsum("ri,ri->r", g, step))
    for r in range(R):
        alone, alone_slope, alone_ridged = mle._newton_step(g[r : r + 1], H[r : r + 1])
        assert np.array_equal(alone[0], step[r]) and alone_slope[0] == slope[r] and alone_ridged[0] == ridged[r]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stacked_lapack_calls_give_each_matrix_its_own_verdict(m):
    """The batch reads each row's LAPACK verdict from one stacked call of the
    gufuncs that np.linalg.cholesky, solve and eigvalsh call. On a seeded
    stack of definite, indefinite, exactly singular positive semidefinite
    (a zero row and column) and rounded rank-deficient matrices, a row of
    each call's output is NaN exactly when the one-matrix np.linalg call
    raises, and every other row has that call's bits."""
    rng = np.random.default_rng(4300 + m)
    R = 48
    Q = np.linalg.qr(rng.normal(size=(R, m, m)))[0]
    lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(R, m))
    kind = np.arange(R) % 4  # definite, indefinite, exactly singular, rounded rank-deficient
    for r in range(R):
        if kind[r] == 1:
            lam[r, rng.permutation(m)[: rng.integers(1, m + 1)]] *= -1.0
        elif kind[r] == 3:
            lam[r, rng.permutation(m)[: rng.integers(1, m + 1)]] = 0.0
    M = np.einsum("rij,rj,rkj->rik", Q, lam, Q)
    M = (M + M.transpose(0, 2, 1)) / 2.0
    for r in (kind == 2).nonzero()[0]:
        j = rng.integers(m)
        M[r, j, :] = M[r, :, j] = 0.0
    b = rng.normal(size=(R, m, 1))
    lapack = mle._umath_linalg
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        calls = [
            (lapack.cholesky_lo(M, signature="d->d"), np.linalg.cholesky, (M,)),
            (lapack.solve(M, b, signature="dd->d"), np.linalg.solve, (M, b)),
            (lapack.eigvalsh_lo(M, signature="d->d"), np.linalg.eigvalsh, (M,)),
        ]
    failed = []
    for stacked, alone, args in calls:
        failed.append(np.isnan(stacked).any(axis=tuple(range(1, stacked.ndim))))
        for r in range(R):
            try:
                expected = alone(*(a[r] for a in args))
            except np.linalg.LinAlgError:
                assert failed[-1][r] and np.isnan(stacked[r]).all(), (alone.__name__, r)
            else:
                assert not failed[-1][r] and stacked[r].tobytes() == expected.tobytes(), (alone.__name__, r)
    cholesky_failed, solve_failed, eigvalsh_failed = failed
    assert not cholesky_failed[kind == 0].any() and cholesky_failed[(kind == 1) | (kind == 2)].all()
    assert solve_failed[kind == 2].all() and not solve_failed[kind < 2].any() and not eigvalsh_failed.any()


SINGULAR = 2.0**40 + 0.5  # the diagonal that marks a system the patched solve calls singular


def singular_when_marked(monkeypatch, marked):
    """Patch the Hessians of the rows that ``marked(V)`` picks to
    -SINGULAR * I, which passes the Cholesky test, and the batch's stacked
    LAPACK solve to return NaN for each such matrix, as LAPACK does on an
    exactly singular one."""
    derivatives = mle.Likelihood.derivatives
    lapack = mle._umath_linalg

    def marked_derivatives(self, V, which=0):
        G, H = derivatives(self, V, which)
        H[marked(V)] = -SINGULAR * np.eye(H.shape[-1])
        return G, H

    def solve(a, b, signature):
        step = lapack.solve(a, b, signature=signature)
        step[a[:, 0, 0] == SINGULAR] = np.nan
        return step

    monkeypatch.setattr(mle.Likelihood, "derivatives", marked_derivatives)
    monkeypatch.setattr(
        mle, "_umath_linalg", SimpleNamespace(cholesky_lo=lapack.cholesky_lo, eigvalsh_lo=lapack.eigvalsh_lo, solve=solve)
    )


def test_singular_system_fails_its_row_alone(steiner, monkeypatch):
    """A row whose Newton system is singular gets a NaN step and fails, and
    no LinAlgError leaves the batch; every other row keeps its bits."""
    s = [4, 3, 2, 1]
    regions = enumerate_regions(steiner.arr)
    (plain,) = _solve_batch(steiner, [s], regions, 1e-10)
    target = np.array(regions[2].sign.signs, dtype=float)
    singular_when_marked(monkeypatch, lambda V: (target * V > 0.0).all(axis=1))
    (forced,) = _solve_batch(steiner, [s], regions, 1e-10)
    monkeypatch.undo()
    assert isinstance(forced[2], NoConvergence) and "nan" in str(forced[2])
    for k, (point, other) in enumerate(zip(plain, forced)):
        if k == 2:
            continue
        for name in ("x", "y", "p"):
            assert np.array_equal(getattr(point, name), getattr(other, name)), (k, name)
        for name in ("logL", "grad_norm", "iterations", "hessian_max_eig"):
            assert getattr(point, name) == getattr(other, name), (k, name)


def test_infinite_hessian_at_convergence_fails_its_row_alone():
    """On data spanning 1e-15 to 1, one region converges to a point with a
    form value of exactly 0.0, where its Hessian holds an infinity, which the
    finish keeps from its stacked eigenvalue call. That row fails as
    NoConvergence, and every other converged row keeps the bits it has in a
    batch without it."""
    A = [
        [6, -1, 7, 1, 1], [2, -5, 8, -1, 6], [1, 2, 0, 4, -3], [-9, -2, -7, 8, -7],
        [-5, 3, -8, -8, 8], [-9, -1, 0, -9, -3], [-4, -7, 9, 7, -4], [1, -3, -9, -8, -7],
        [1, -4, 4, -5, 2], [-7, 0, -7, -3, -5], [-2, 1, 9, -1, -4], [-6, 9, 7, -7, -2],
    ]
    model = make_model(Arrangement(A=A))
    s = 1e-5 ** np.array([2, 1, 0, 1, 1, 0, 3, 0, 0, 2, 0, 3], dtype=float)
    regions = enumerate_regions(model.arr)
    (row,) = _solve_batch(model, [s], regions, 1e-10)
    (bad,) = [k for k, out in enumerate(row) if "coordinate underflow" in str(out)]
    ((alone,),) = _solve_batch(model, [s], [regions[bad]], 1e-10)
    assert isinstance(row[bad], NoConvergence) and str(alone) == str(row[bad])
    converged = [k for k, out in enumerate(row) if isinstance(out, CriticalPoint)]
    (apart,) = _solve_batch(model, [s], [regions[k] for k in converged], 1e-10)
    for k, other in zip(converged, apart):
        point = row[k]
        for name in ("x", "y", "p"):
            assert np.array_equal(getattr(point, name), getattr(other, name)), (k, name)
        for name in ("logL", "grad_norm", "iterations", "hessian_max_eig"):
            assert getattr(point, name) == getattr(other, name), (k, name)


def test_wide_range_rows_whose_steps_descend_fail_alone():
    """On data spanning 1e-15 to 1, rows of a (5,12) arrangement reach a
    Hessian that passes the Cholesky test but solves to a Newton step of
    negative slope g . step. Read as a decrement of 0, such a slope made 29
    of them found points with gradient norms from 1.6 to 233. Each fails,
    naming its slope, with a trace that ends in NaN; every found point has a
    negative definite chart Hessian, and keeps its bits in a batch without
    the failing rows."""
    A = [
        [-6, 7, 5, -2, 3], [5, 6, 1, -6, 7], [-9, 8, 3, -8, -5], [4, -2, -6, -7, 6],
        [-3, -5, 3, 2, -2], [0, 1, 2, 3, 3], [-5, 2, 0, 4, 2], [7, -8, 9, 9, -3],
        [-4, 3, -7, -6, -8], [-8, -4, -3, -3, -8], [6, 6, 2, -9, 4], [6, 0, 4, 1, 5],
    ]
    model = make_model(Arrangement(A=A))
    s = 1e-5 ** np.array([3, 0, 1, 1, 1, 0, 2, 3, 3, 1, 2, 0], dtype=float)
    regions = enumerate_regions(model.arr)
    (row,) = _solve_batch(model, [s], regions, 1e-10)
    descended = [out for out in row if "negative slope" in str(out)]
    assert descended
    for out in descended:
        assert str(out).startswith("Newton step has negative slope -") and np.isnan(out.trace[-1][1])
    converged = [k for k, out in enumerate(row) if isinstance(out, CriticalPoint)]
    assert all(row[k].hessian_max_eig < 0.0 for k in converged)
    (apart,) = _solve_batch(model, [s], [regions[k] for k in converged], 1e-10)
    for k, other in zip(converged, apart):
        point = row[k]
        for name in ("x", "y", "p"):
            assert np.array_equal(getattr(point, name), getattr(other, name)), (k, name)
        for name in ("logL", "grad_norm", "iterations", "hessian_max_eig"):
            assert getattr(point, name) == getattr(other, name), (k, name)


def test_step_descending_on_a_cholesky_tested_hessian_fails_its_row():
    """The 4x16/2 draw of tests/golden/solver_bits.py at data 1e-4^w: in
    region 455 the Hessian passes the Cholesky test at the 111th pass, but
    its Newton system solves to a step of slope g . step = -1.8e4. Read as a
    decrement of 0 that made the row found, at a point with gradient norm
    2.06 and a positive top chart eigenvalue. The row fails, naming the
    slope, and its trace ends in NaN, not 0; every point found in the
    batch has a negative definite chart Hessian."""
    rng = random.Random("solver-bits/4x16/2")
    model = make_model(catalog.random_arrangement(4, 16, rng, -99, 99))
    w = np.array([rng.randint(0, 3) for _ in range(16)], dtype=float)
    regions = enumerate_regions(model.arr)
    (row,) = _solve_batch(model, [1e-4**w], regions, 1e-10)
    assert str(regions[455].sign) == "+--+--++++--++-+"
    failure = row[455]
    assert isinstance(failure, NoConvergence)
    assert str(failure) == "Newton step has negative slope -1.794e+04 on a Cholesky-tested Hessian"
    assert len(failure.trace) == 111 and np.isnan(failure.trace[-1][1])
    assert all(p.hessian_max_eig < 0.0 for p in row if isinstance(p, CriticalPoint))


def test_found_point_without_negative_definite_hessian_fails(steiner, monkeypatch):
    """With every Newton step zero, each row is found at its start. From
    seeded starts inside Steiner's regions at data (1, 1e-3, 1e-3, 1e-3),
    the rows whose chart Hessian there is not negative definite fail with
    their trace and a message naming the largest eigenvalue; the others are
    points with a negative hessian_max_eig."""
    rng = np.random.default_rng(0)
    regions = enumerate_regions(steiner.arr)
    starts = []
    for region in regions:
        signs = np.array(region.sign.signs, dtype=float)
        x = rng.normal(size=3)
        while not (signs * (steiner.A_float @ x) > 0.0).all():
            x = rng.normal(size=3)
        starts.append(x)
    zero = lambda g, H: (np.zeros_like(g), np.zeros(len(g)), np.zeros(len(g), dtype=bool))
    monkeypatch.setattr(mle, "_newton_step", zero)
    (row,) = _solve_batch(steiner, [[1.0, 1e-3, 1e-3, 1e-3]], regions, 1e-10, [starts])
    failures = [out for out in row if isinstance(out, NoConvergence)]
    assert failures
    for out in failures:
        message = "Hessian at convergence is not negative definite: largest eigenvalue "
        assert str(out).startswith(message) and float(str(out)[len(message):]) > 0.0
        assert out.trace == [(0, 0.0)]
    assert all(out.hessian_max_eig < 0.0 for out in row if isinstance(out, CriticalPoint))


def test_every_system_singular_exits_3_in_the_cli(tmp_path, capsys, monkeypatch):
    import json

    from sqlinear.cli import main
    from sqlinear.jsonio import arrangement_to_json

    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(arrangement_to_json(catalog.steiner_arrangement()), s=[4, 3, 2, 1])))
    singular_when_marked(monkeypatch, lambda V: np.ones(len(V), dtype=bool))
    assert main(["mle", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["type"]) == ("numeric", "NoConvergence")
    assert len(err["failures"]) == 7
    assert not (tmp_path / "out.json").exists()


def test_failing_tolerance_fails_the_same_regions(steiner):
    # Only tol = 0 fails every region: a decrement of exactly 0 passes any
    # positive tol, and below roundoff the two solvers part ways on which
    # rows reach 0.
    s = np.array([0.4, 0.3, 0.2, 0.1])
    regions = enumerate_regions(steiner.arr)
    with pytest.raises(NoConvergence) as batch_err:
        solve_all(steiner, s, 0.0, regions=regions)
    assert [region for region, _ in batch_err.value.failures] == regions
    for region, failure in batch_err.value.failures:
        with pytest.raises(NoConvergence) as loop_err:
            oracle.solve_region(steiner, s, region, 0.0)
        assert failure.trace and loop_err.value.trace


def test_warm_start_matches_oracle(braid4):
    s = np.random.default_rng(3).uniform(0.1, 1.0, size=braid4.n)
    regions = enumerate_regions(braid4.arr)[:4]
    starts = [-oracle.solve_region(braid4, s * 0.5 + 0.2, region).x for region in regions]
    (batch,) = _solve_batch(braid4, [s], regions, 1e-10, [starts])
    for region, start, point in zip(regions, starts, batch):
        loop = oracle.solve_region(braid4, s, region, start=start)
        assert np.abs(point.x - loop.x).max() <= 1e-9


@pytest.mark.parametrize(
    "name, w, grid",
    [
        ("steiner", (0, 3, 4, 5), (1e-1, 10**-1.5, 1e-2, 10**-2.5)),
        ("braid4", (0, 1, 2, 3, 4, 5), tuple(10 ** (-1.5 - 0.375 * k) for k in range(4))),
    ],
)
def test_tracking_matches_oracle(name, w, grid):
    model = make_model(CATALOG[name]())
    trop = TropicalData(w=w, anchor=0)
    expected = oracle.track_slopes(model, w, 0, grid)
    estimates = estimate_valuations(model, trop, eps_grid=grid)
    assert [str(e.region.sign) for e in estimates] == list(expected)
    for est in estimates:
        slopes = expected[str(est.region.sign)]
        assert np.abs(np.array(est.slopes) - slopes).max() <= 1e-6
        targets = [0.0 if abs(v) < abs(v - (wj - w[0])) else wj - w[0] for v, wj in zip(slopes, w)]
        assert [float(z) for z in est.point.z] == targets


@pytest.mark.parametrize(
    "name, w, before, after",
    [
        ("steiner", (0, 3, 4, 5), 1e-1, 10**-1.5),
        ("braid4", (0, 1, 2, 3, 4, 5), 10**-1.5, 10**-1.875),
    ],
    ids=["steiner", "braid4"],
)
def test_tracking_step_line_search_starts_near_the_wall(monkeypatch, name, w, before, after):
    """One warm-started tracking step: the data shrink, each region's Newton
    step overshoots a hyperplane, and the first trial, TO_WALL of the way to
    it, is nearly always taken. Only a trial that keeps the signs and is not
    flat has its logL taken, so line-search trials evaluate at most 0.5 rows
    per row-iteration: 21 over 51 iterations on Steiner and 37 over 84 on
    braid(4). Taking every trial's logL evaluated 52 and 86, and halving
    from t = 1 evaluated 3.1 rows per row-iteration on Steiner and 2.0 on
    braid(4)."""
    model = make_model(CATALOG[name]())
    regions = enumerate_regions(model.arr)
    w = np.array(w, dtype=float)
    (points,) = _solve_batch(model, [before**w], regions, 1e-10)
    call, hessian, derivatives = mle.Likelihood.__call__, mle.Likelihood.hessian, mle.Likelihood.derivatives
    trial_rows, iterates = [], [None]  # the form values of the last Hessian evaluation

    def counted_call(self, V, which=0):
        if V is not iterates[0]:  # the iterates' own logL is no trial
            trial_rows.append(len(V))
        return call(self, V, which)

    def noted(method):
        def evaluate(self, V, which=0):
            iterates[0] = V
            return method(self, V, which)

        return evaluate

    monkeypatch.setattr(mle.Likelihood, "__call__", counted_call)
    monkeypatch.setattr(mle.Likelihood, "hessian", noted(hessian))
    monkeypatch.setattr(mle.Likelihood, "derivatives", noted(derivatives))
    (tracked,) = _solve_batch(model, [after**w], regions, 1e-10, [[p.x for p in points]])
    assert all(isinstance(p, CriticalPoint) for p in tracked)
    assert sum(trial_rows) <= 0.5 * sum(p.iterations for p in tracked)


def test_every_region_holds_a_local_max_on_wide_range_data():
    """The paper's one local max per region, on random instances with data
    of wide dynamic range: s = eps^w with w_i in {0..3}, at eps = 1e-1 and
    10^-2.5, on four random (3,8) and four (4,9) arrangements. Every region
    converges, to a point with its region's signs and a negative definite
    chart Hessian."""
    rng = random.Random(5)
    for d, n in [(3, 8)] * 4 + [(4, 9)] * 4:
        model = make_model(catalog.random_arrangement(d, n, rng))
        w = np.array([rng.randint(0, 3) for _ in range(n)], dtype=float)
        regions = enumerate_regions(model.arr)
        for row in _solve_batch(model, [1e-1**w, (10**-2.5) ** w], regions, 1e-10):
            assert len(row) == abs(characteristic_polynomial(model.arr)(-1)) // 2
            for region, point in zip(regions, row):
                assert isinstance(point, CriticalPoint), (region.sign, point)
                assert SignVector.from_values(point.y) == region.sign
                assert point.hessian_max_eig < 0.0
