"""Per-region maximum-likelihood solving and the determinantal rank test.

Every region of the arrangement complement carries exactly one critical
point of the log-likelihood, and it is a local maximum. The solver therefore
never needs globalization tricks beyond a line search: damped Newton on a
chart, with steps rejected whenever they would flip the sign of any form,
converges from any interior start of the region.

The chart pins the currently largest coordinate of the iterate (starting
from the witness) and hops charts when another coordinate takes over, so
iterates stay bounded; curvature is handled by ridging the Hessian when it
is not negative definite. Convergence is measured by the Euclidean norm of
the ambient gradient at the unit-norm representative, which is scale-free.
Once that norm is small the likelihood comparisons of the line search are
dominated by roundoff, so the last stretch runs plain Newton steps (still
sign-guarded) and keeps the iterate with the smallest gradient.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Region, SignVector, enumerate_regions
from .errors import BoundaryData, NoConvergence, NumericError, ValidationError
from .model import SquaredLinearModel, gradient, hessian, log_likelihood, normalize_parameter


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 200
    shift_margin: float = 1e-8
    max_backtracks: int = 50
    polish_iters: int = 20
    # Accept the gradient-noise floor of double precision when it exceeds
    # tol. Path tracking needs this: near-degenerate data makes some forms
    # cancel catastrophically, which bounds the achievable gradient norm,
    # while the coordinates themselves stay accurate in relative terms.
    adaptive_floor: bool = False


@dataclass(frozen=True)
class CriticalPoint:
    region: SignVector
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    logL: float
    grad_norm: float
    iterations: int
    hessian_max_eig: float


@dataclass(frozen=True)
class LikelihoodMatrix:
    """(n-d+2) x n matrix [s; l^2(x); B diag(l(x))] whose maximal minors
    present the likelihood correspondence. Row one depends only on the data,
    the rest only on the parameter point."""

    rows: np.ndarray


@dataclass
class SolveAllResult:
    points: list
    mle_index: int
    failures: list = field(default_factory=list)

    @property
    def mle(self) -> CriticalPoint:
        return self.points[self.mle_index]


def likelihood_matrix(model: SquaredLinearModel, s, x) -> LikelihoodMatrix:
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    values = model.A_float @ x
    rows = np.vstack([s, values**2, model.B_float * values])
    return LikelihoodMatrix(rows=rows)


def rank_defect(matrix: LikelihoodMatrix, tol: float) -> int:
    """Row count minus numerical rank at relative SVD threshold ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma = np.linalg.svd(matrix.rows, compute_uv=False)
    if sigma[0] == 0.0:
        return matrix.rows.shape[0]
    numerical_rank = int(np.sum(sigma > tol * sigma[0]))
    return matrix.rows.shape[0] - numerical_rank


def _check_positive_data(s, n):
    s = np.asarray(s, dtype=float)
    if s.shape != (n,):
        raise ValidationError(f"data vector must have n = {n} entries, got shape {s.shape}")
    if np.any(s <= 0.0):
        raise BoundaryData(
            "data vector has nonpositive entries; use the degeneration module"
        )
    return s


class _Chart:
    """Newton mechanics on the chart that pins one coordinate of x.

    The chart starts at the witness's largest coordinate; when iterates grow,
    the pinned coordinate is re-chosen so they stay in [-1, 1]^d (standard
    atlas hopping on projective space). Without this, regions whose critical
    point has a small pinned coordinate push the iterates toward infinity.
    """

    def __init__(self, model, s, region, opts):
        self.model = model
        self.s = s
        self.signs = np.array(region.sign.signs, dtype=float)
        self.A = model.A_float
        self.opts = opts
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

    def grad_norm(self, x) -> float:
        # Degree-0 homogeneity: the gradient at x/|x| is |x| * gradient at x.
        return float(np.linalg.norm(gradient(self.model, self.s, x)) * np.linalg.norm(x))

    def noise_floor(self, x) -> float:
        xn = x / np.linalg.norm(x)
        return _gradient_noise_floor(self.model, self.s, xn)

    def newton_step(self, x):
        """Ascent direction solve(-H, g), ridging H only when not negative
        definite. A definite Hessian, however stiff, gets the pure Newton
        step; shifting it would wreck the soft directions during tracking."""
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
                    ridge = max(2.0 * ridge, self.opts.shift_margin * scale)
            step = np.linalg.solve(-(H - ridge * np.eye(len(self.free))), g_free)
        except np.linalg.LinAlgError as err:
            raise NoConvergence(f"Newton system unsolvable: {err}") from err
        return step, float(g_free @ step)

    def advance(self, x, step, t):
        cand = x.copy()
        cand[self.free] += t * step
        return cand


def solve_region(
    model: SquaredLinearModel,
    s,
    region: Region,
    opts: SolveOptions | None = None,
    start=None,
) -> CriticalPoint:
    """Newton-solve the unique critical point inside one region.

    ``start`` overrides the region witness as the initial iterate (used for
    warm starts during path tracking); it must already lie in the region.
    """
    opts = opts or SolveOptions()
    s = _check_positive_data(s, model.n)
    chart = _Chart(model, s, region, opts)

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
    polish_at = 1e-5 * max(1.0, float(s.sum()))

    # Globalized phase: Newton direction with Armijo backtracking.
    while iterations < opts.max_iter:
        x = chart.rechart(x)
        grad_norm = chart.grad_norm(x)
        trace.append((iterations, grad_norm))
        if grad_norm <= opts.tol or grad_norm <= polish_at:
            break
        if opts.adaptive_floor and grad_norm <= 8.0 * chart.noise_floor(x):
            break  # at the roundoff floor of this data vector
        step, slope = chart.newton_step(x)
        current = log_likelihood(model, s, x)
        t = 1.0
        accepted = False
        for _ in range(opts.max_backtracks):
            cand = chart.advance(x, step, t)
            if chart.in_region(cand) and log_likelihood(model, s, cand) >= current + 1e-4 * t * slope:
                x = cand
                accepted = True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            break  # likelihood comparisons hit roundoff; polish below

    # Local phase: plain sign-guarded Newton, keep the best iterate.
    best_x = x.copy()
    best_norm = chart.grad_norm(x)
    for _ in range(opts.polish_iters):
        if best_norm <= opts.tol:
            break
        x = chart.rechart(x)
        step, _ = chart.newton_step(x)
        t = 1.0
        cand = chart.advance(x, step, t)
        for _ in range(opts.max_backtracks):
            if chart.in_region(cand):
                break
            t *= 0.5
            cand = chart.advance(x, step, t)
        else:
            break
        x = cand
        iterations += 1
        norm = chart.grad_norm(x)
        trace.append((iterations, norm))
        if norm < best_norm:
            best_norm = norm
            best_x = x.copy()
        elif norm > 10.0 * best_norm:
            break  # diverging from the basin floor; stop polishing
    if best_norm > opts.tol:
        accept = opts.adaptive_floor and best_norm <= 8.0 * _gradient_noise_floor(
            model, s, best_x / np.linalg.norm(best_x)
        )
        if not accept:
            raise NoConvergence(
                f"gradient floor {best_norm:.3e} above tolerance {opts.tol:.1e}",
                trace=trace,
            )

    xn = normalize_parameter(best_x)
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


def solve_all(
    model: SquaredLinearModel,
    s,
    opts: SolveOptions | None = None,
    regions=None,
    max_workers: int | None = None,
) -> SolveAllResult:
    """One critical point per region; the argmax of logL is the MLE.

    Any NumericError is collected per region instead of aborting the rest.
    Results are in canonical region order regardless of scheduling.
    """
    s = _check_positive_data(s, model.n)
    if regions is None:
        regions = enumerate_regions(model.arr)
    if max_workers is None:
        max_workers = _thread_cap()

    def run(region):
        return solve_region(model, s, region, opts)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(lambda r: _guard(run, r), regions))
    else:
        outcomes = [_guard(run, r) for r in regions]
    points = []
    failures = []
    for region, (point, err) in zip(regions, outcomes):
        if err is not None:
            failures.append((region, err))
        else:
            points.append(point)
    if not points:
        raise NoConvergence("no region converged", trace=[])
    mle_index = max(range(len(points)), key=lambda i: points[i].logL)
    return SolveAllResult(points=points, mle_index=mle_index, failures=failures)


def _gradient_noise_floor(model, s, x) -> float:
    """Backward-error bound on the gradient roundoff at unit-norm x.

    Each term 2 s_i / l_i(x) inherits the summation error of l_i, which is
    about eps * |A_i|_1 * max|x|; dividing by l_i once more gives the term's
    contribution to the gradient noise.
    """
    A = model.A_float
    values = A @ x
    row_scale = np.abs(A).sum(axis=1) * float(np.abs(x).max())
    u = float(np.finfo(float).eps)
    return u * float(np.sum(2.0 * s * row_scale**2 / values**2))


def _guard(fn, region):
    try:
        return fn(region), None
    except NumericError as err:
        return None, err


def _thread_cap() -> int:
    raw = os.environ.get("SLM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
