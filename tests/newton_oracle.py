"""Test oracle: the per-region Newton solver.

This is the loop form of :mod:`sqlinear.mle`: one region at a time, a chart
object per region and one small numpy call per evaluation. The library
solves every region together on an (R, d) stack with the same decisions made
per row; tests/test_newton_batch.py checks that both find the same critical
points, fail on the same regions and track the same valuations.

The oracle keeps its own scalar copies of the log-likelihood, its gradient
and its Hessian, so it stays independent of :class:`sqlinear.mle.Likelihood`,
which the library evaluates them with; tests/test_model.py compares the two.
"""

from __future__ import annotations

import math

import numpy as np

from sqlinear.arrangement import SignVector, enumerate_regions
from sqlinear.errors import NoConvergence, NumericError, ZeroPoint
from sqlinear.mle import (
    MAX_BACKTRACKS,
    MAX_ITER,
    SHIFT_MARGIN,
    TO_WALL,
    CriticalPoint,
    SolveAllResult,
    _check_positive_data,
    normalize_parameter,
)


def log_likelihood(model, s, x) -> float:
    """sum_i s_i log p_i(x); -inf when x sits on a hyperplane with s_i > 0."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    values = model.A_float @ x
    q = float(np.dot(values, values))
    if q == 0.0:
        raise ZeroPoint("zero vector is not a projective point")
    total = 0.0
    for si, li in zip(s, values):
        if si == 0.0:
            continue
        if li == 0.0:
            return -math.inf
        total += 2.0 * si * math.log(abs(li))
    return total - float(s.sum()) * math.log(q)


def gradient(model, s, x) -> np.ndarray:
    """grad = sum_i (2 s_i / l_i(x)) A_i - (2 sum_j s_j / q(x)) A^T A x."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    A = model.A_float
    values = A @ x
    if np.any((values == 0.0) & (s != 0.0)):
        raise NumericError("gradient undefined on a hyperplane with positive weight")
    q = float(np.dot(values, values))
    weights = np.where(s != 0.0, 2.0 * s / np.where(values == 0.0, 1.0, values), 0.0)
    return weights @ A - (2.0 * s.sum() / q) * (A.T @ (A @ x))


def hessian(model, s, x) -> np.ndarray:
    """Ambient-coordinate Hessian of the log-likelihood."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    A = model.A_float
    values = A @ x
    if np.any((values == 0.0) & (s != 0.0)):
        raise NumericError("hessian undefined on a hyperplane with positive weight")
    q = float(np.dot(values, values))
    gram = A.T @ A
    u = gram @ x
    safe = np.where(values == 0.0, 1.0, values)
    diag = np.where(s != 0.0, 2.0 * s / safe**2, 0.0)
    total = float(s.sum())
    return -(A.T * diag) @ A - (2.0 * total / q) * gram + (4.0 * total / q**2) * np.outer(u, u)


def eigen_step(H, g):
    """The batch's Newton step as it was before it tested definiteness by
    Cholesky, kept as an oracle for :func:`sqlinear.mle._newton_step`: for
    each row of an (R, m, m) stack of free Hessians and (R, m) gradients, the
    eigendecomposition lam, Q of -H, the closed-form ridge (SHIFT_MARGIN times
    the largest |diagonal entry| of H, doubled until lam_min plus the ridge is
    positive) and the step Q diag(1 / (lam + ridge)) Q^T g. Returns the steps
    and the mask of the rows whose ridge is positive."""
    lam, Q = np.linalg.eigh(-H)
    low = lam[:, 0]
    scale = np.abs(np.diagonal(H, axis1=1, axis2=2)).max(axis=1)
    scale[scale == 0.0] = 1.0
    # ridge = base * 2^k for the least k >= 0 with lam_min + ridge > 0; the
    # sign of that sum is exact, so two guards undo a rounded log2.
    base = SHIFT_MARGIN * scale
    ridge = np.where(low > 0.0, 0.0, base * 2.0 ** np.ceil(np.log2(np.maximum(-low, base) / base)))
    ridge[(ridge > base) & (low + ridge / 2.0 > 0.0)] /= 2.0
    ridge[~(low + ridge > 0.0)] *= 2.0
    lam = lam + ridge[:, None]
    return np.einsum("rij,rj->ri", Q, np.einsum("rji,rj->ri", Q, g) / lam), ridge > 0.0


class _Chart:
    """Newton mechanics on the chart that pins one coordinate of x.

    The chart starts at the witness's largest coordinate; when iterates grow,
    the pinned coordinate is re-chosen so they stay in [-1, 1]^d (standard
    atlas hopping on projective space). Without this, regions whose critical
    point has a small pinned coordinate push the iterates toward infinity.
    """

    def __init__(self, model, s, region):
        self.model = model
        self.s = s
        self.signs = np.array(region.sign.signs, dtype=float)
        self.A = model.A_float
        witness = np.array([float(v) for v in region.witness])
        self.chart = int(np.argmax(np.abs(witness)))
        self.free = [i for i in range(model.d) if i != self.chart]

    def rechart(self, x):
        top = int(np.argmax(np.abs(x)))
        if top != self.chart:
            self.chart = top
            self.free = [i for i in range(self.model.d) if i != top]
        return x / abs(x[self.chart])

    def in_region(self, x) -> bool:
        return bool(np.all(self.signs * (self.A @ x) > 0.0))

    def newton_step(self, x):
        """Ascent direction solve(-H, g), its slope and whether H was ridged,
        which happens only when H is not negative definite. A definite
        Hessian, however stiff, gets the pure Newton step, whose slope is the
        decrement; shifting it would wreck the soft directions during
        tracking."""
        H = hessian(self.model, self.s, x)[np.ix_(self.free, self.free)]
        g_free = gradient(self.model, self.s, x)[self.free]
        ridge = 0.0
        scale = float(np.abs(np.diag(H)).max()) or 1.0
        try:
            for _ in range(80):
                try:
                    np.linalg.cholesky(-(H - ridge * np.eye(len(self.free))))
                    break
                except np.linalg.LinAlgError:
                    ridge = max(2.0 * ridge, SHIFT_MARGIN * scale)
            step = np.linalg.solve(-(H - ridge * np.eye(len(self.free))), g_free)
        except np.linalg.LinAlgError as err:
            raise NoConvergence(f"Newton system unsolvable: {err}") from err
        return step, float(g_free @ step), ridge > 0.0

    def advance(self, x, step, t):
        cand = x.copy()
        cand[self.free] += t * step
        return cand


def solve_region(model, s, region, tol=1e-10, start=None) -> CriticalPoint:
    """Newton-solve the unique critical point inside one region."""
    s = _check_positive_data(s, model.n)
    chart = _Chart(model, s, region)

    if start is not None:
        x = np.asarray(start, dtype=float).copy()
        if not chart.in_region(x) and chart.in_region(-x):
            x = -x  # antipodal representative of the same projective point
    else:
        x = np.array([float(v) for v in region.witness])
    if not chart.in_region(x):
        raise NoConvergence("start point does not satisfy the region signs")

    trace = []
    iterations = 0
    total = float(s.sum())
    flat_below = 1e-5 * max(1.0, total)
    converged = False
    while iterations < MAX_ITER:
        x = chart.rechart(x)
        step, slope, ridged = chart.newton_step(x)
        lam = math.sqrt(max(slope, 0.0) / total)
        trace.append((iterations, lam))
        decrement = math.inf if ridged else slope
        if not ridged and lam < tol:
            # Found: take the last Newton step if it keeps the signs.
            cand = chart.advance(x, step, 1.0)
            if chart.in_region(cand):
                x = cand
            converged = True
            break
        # Below flat_below, likelihood comparisons are roundoff: signs decide.
        current = log_likelihood(model, s, x)
        # The first trial stops TO_WALL of the way to the nearest hyperplane the step heads for.
        values = chart.signs * (chart.A @ x)
        along = chart.signs * (chart.A @ chart.advance(np.zeros_like(x), step, 1.0))
        t = min(1.0, TO_WALL * min((v / -a for v, a in zip(values, along) if a < 0.0), default=math.inf))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = chart.advance(x, step, t)
            if chart.in_region(cand) and (
                decrement <= flat_below or log_likelihood(model, s, cand) >= current + 1e-4 * t * slope
            ):
                accepted = not np.array_equal(cand, x)
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            break
        x = cand
    if not converged:
        raise NoConvergence(
            f"Newton decrement {trace[-1][1]:.3e} not below tolerance {tol:.1e}",
            trace=trace,
        )

    xn = normalize_parameter(x)
    y = model.A_float @ xn
    try:
        converged_signs = SignVector.from_values(y).signs
    except ValueError as err:
        raise NoConvergence(f"coordinate underflow at convergence: {err}") from err
    if converged_signs != region.sign.signs:
        raise NoConvergence("converged point left its region", trace=trace)
    squares = y**2
    p = squares / squares.sum()
    H_final = hessian(model, s, xn)[np.ix_(chart.free, chart.free)]
    return CriticalPoint(
        region=region.sign,
        x=xn,
        y=y,
        p=p,
        logL=log_likelihood(model, s, xn),
        grad_norm=float(np.linalg.norm(gradient(model, s, xn))),
        iterations=iterations,
        hessian_max_eig=float(np.linalg.eigvalsh(H_final)[-1]),
    )


def solve_all(model, s, tol=1e-10, regions=None) -> SolveAllResult:
    """One region after another; NumericErrors are collected per region."""
    s = _check_positive_data(s, model.n)
    if regions is None:
        regions = enumerate_regions(model.arr)
    points = []
    failures = []
    for region in regions:
        try:
            points.append(solve_region(model, s, region, tol))
        except NumericError as err:
            failures.append((region, err))
    if not points:
        raise NoConvergence("no region converged", trace=[])
    mle_index = max(range(len(points)), key=lambda i: points[i].logL)
    return SolveAllResult(points=points, mle_index=mle_index, failures=failures)


def track_slopes(model, w, anchor, eps_grid):
    """Per-region tracking down ``eps_grid`` for data eps**w: the least-squares slope of log|y_j| against log eps
    for every coordinate, per region."""
    w = np.asarray(w, dtype=float)
    slopes = {}
    for region in enumerate_regions(model.arr):
        start = None
        ys = []
        for eps in eps_grid:
            point = solve_region(model, eps**w, region, start=start)
            start = point.x
            ys.append(point.y / point.y[anchor])
        logs = np.log(np.abs(np.array(ys)))
        fit = np.polyfit(np.log(np.array(eps_grid)), logs, 1)[0]
        fit[anchor] = 0.0
        slopes[str(region.sign)] = fit
    return slopes

