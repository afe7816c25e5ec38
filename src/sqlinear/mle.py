"""Maximum-likelihood solving in every region at once, and the determinantal
rank test.

Every region of the arrangement complement carries exactly one critical
point of the log-likelihood, and it is a local maximum, so damped Newton
with steps rejected whenever they would flip the sign of any form converges
from any interior start of the region. All regions are solved as one (R, d)
stack of iterates: each iteration evaluates the whole stack in a few numpy
calls through :class:`sqlinear.model.Likelihood`, which holds the only copy
of the log-likelihood, gradient and Hessian formulas, and every decision is
made per row through masks. A row's chart pins its largest coordinate and
hops when another one takes over, so iterates stay bounded; the Hessian is
ridged only when it is not negative definite.
Convergence is measured by the ambient gradient norm at the unit-norm
representative, which is scale-free. Once it is small, likelihood
comparisons are dominated by roundoff, so the last stretch runs plain
sign-guarded Newton steps and keeps each row's best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ratlin
from .arrangement import Region, SignVector, enumerate_regions
from .errors import BoundaryData, NoConvergence, ValidationError
from .model import Likelihood, SquaredLinearModel, normalize_parameter


# Smallest ridge, relative to the Hessian's largest diagonal entry, added to
# a Hessian that is not negative definite; and the most halvings of a step.
SHIFT_MARGIN = 1e-8
MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 200
    polish_iters: int = 20
    # Accept the gradient-noise floor of double precision when it exceeds
    # tol. Path tracking needs this: near-degenerate data makes some forms
    # cancel catastrophically, which bounds the achievable gradient norm;
    # tiny coordinates can then lose relative accuracy (see README).
    adaptive_floor: bool = False

    def __post_init__(self):
        if not 0.0 <= self.tol < np.inf:  # NaN fails both comparisons
            raise ValidationError(f"tol must be finite and nonnegative, got {self.tol}")


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
    s = ratlin.to_floats(s, "s")
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
    s = ratlin.to_floats(s, "s")
    if s.shape != (n,):
        raise ValidationError(f"data vector must have n = {n} entries, got shape {s.shape}")
    with np.errstate(over="ignore"):
        if not np.isfinite(s.sum()):  # also catches NaN and infinite entries
            raise ValidationError("data vector must be finite, and so must its sum")
    if np.any(s <= 0.0):
        raise BoundaryData(
            "data vector has nonpositive entries; use the degeneration module"
        )
    return s


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
    This is the one-row case of the batch that :func:`solve_all` runs.
    """
    s = _check_positive_data(s, model.n)
    (outcome,) = _solve_batch(model, s, [region], opts or SolveOptions(), [start])
    if not isinstance(outcome, CriticalPoint):
        raise outcome
    return outcome


def solve_all(
    model: SquaredLinearModel,
    s,
    opts: SolveOptions | None = None,
    regions=None,
) -> SolveAllResult:
    """One critical point per region; the argmax of logL is the MLE.

    All regions are solved in one batch. A region that fails is recorded in
    ``failures`` with its error while the rest solve; results are in
    canonical region order. When no region converges, the NoConvergence
    raised carries every region's failure.
    """
    s = _check_positive_data(s, model.n)
    if regions is None:
        regions = enumerate_regions(model.arr)
    outcomes = _solve_batch(model, s, regions, opts or SolveOptions())
    points = [out for out in outcomes if isinstance(out, CriticalPoint)]
    failures = [(r, out) for r, out in zip(regions, outcomes) if not isinstance(out, CriticalPoint)]
    if not points:
        raise NoConvergence("no region converged", trace=[], failures=failures)
    mle_index = max(range(len(points)), key=lambda i: points[i].logL)
    return SolveAllResult(points=points, mle_index=mle_index, failures=failures)


def _solve_batch(model, s, regions, opts, starts=None) -> list:
    """Damped Newton for every region at once.

    Returns one outcome per region, in order: its CriticalPoint, or the
    NoConvergence that stopped it. ``starts`` optionally gives a start point
    per region (None keeps the witness). ``s`` must be checked data.
    """
    A = model.A_float
    loglik = Likelihood(A, s)
    R, d = len(regions), model.d
    signs = np.array([r.sign.signs for r in regions], dtype=float).reshape(R, model.n)
    X = ratlin.to_floats([r.witness for r in regions], "witness").reshape(R, d)
    chart = np.argmax(np.abs(X), axis=1)
    for k, start in enumerate(starts or ()):
        if start is not None:
            X[k] = start
    iterations = np.zeros(R, dtype=int)
    traces = [[] for _ in range(R)]
    outcomes = [None] * R

    def inside(Y, rows=slice(None)):
        return np.all(signs[rows] * (Y @ A.T) > 0.0, axis=1)

    def grad_norm(Y):
        # Degree-0 homogeneity: the gradient at y/|y| is |y| * gradient at y.
        return np.linalg.norm(loglik.gradient(Y)[0], axis=1) * np.linalg.norm(Y, axis=1)

    def noise_floor(Y):
        # Gradient roundoff at Y/|Y|: each term 2 s_i / l_i inherits the error
        # of l_i, about eps * |A_i|_1 * max|y|, divided by l_i once more.
        Y = Y / np.linalg.norm(Y, axis=1)[:, None]
        scale = np.abs(A).sum(axis=1) * np.abs(Y).max(axis=1)[:, None]
        return np.finfo(float).eps * np.sum(2.0 * s * scale**2 / (Y @ A.T) ** 2, axis=1)

    def free_hessian(rows, Y):
        """Gradient and Hessian on the free coordinates of each row's chart."""
        g, H = loglik.hessian(Y)
        lane = np.arange(d - 1)
        free = lane + (lane >= chart[rows, None])
        H = np.take_along_axis(np.take_along_axis(H, free[:, :, None], 1), free[:, None, :], 2)
        return np.take_along_axis(g, free, 1), H, free

    def newton_step(rows):
        """Ascent direction solve(-H, g) on the free coordinates (zero on the
        pinned one) and its slope, ridging H only when not negative definite.
        A definite Hessian, however stiff, gets the pure Newton step; shifting
        it would wreck the soft directions during tracking."""
        g, H, free = free_hessian(rows, X[rows])
        finite = np.all(np.isfinite(H), axis=(1, 2))
        H[~finite] = -np.eye(d - 1)  # keeps eigh going; the step is discarded
        lam, Q = np.linalg.eigh(-H)
        scale = np.abs(np.diagonal(H, axis1=1, axis2=2)).max(axis=1)
        scale[scale == 0.0] = 1.0
        ridge = np.zeros(len(rows))
        for _ in range(80):
            short = ~(lam[:, 0] + ridge > 0.0)
            if not short.any():
                break
            ridge[short] = np.maximum(2.0 * ridge[short], SHIFT_MARGIN * scale[short])
        coef = np.einsum("rji,rj->ri", Q, g) / (lam + ridge[:, None])
        step = np.einsum("rij,rj->ri", Q, coef)
        step[~finite] = np.nan
        full = np.zeros((len(rows), d))
        np.put_along_axis(full, free, step, 1)
        return full, np.einsum("ri,ri->r", g, step)

    def backtrack(rows, step, accept):
        """Halve each row's step from t = 1 until ``accept(sub, cand, t)``
        holds, at most MAX_BACKTRACKS times: candidates and the found mask."""
        t = np.ones(len(rows))
        found = np.zeros(len(rows), dtype=bool)
        cand = np.empty((len(rows), d))
        for _ in range(MAX_BACKTRACKS):
            sub = np.flatnonzero(~found)
            if not sub.size:
                break
            trial = X[rows[sub]] + t[sub, None] * step[sub]
            ok = accept(sub, trial, t[sub])
            cand[sub[ok]] = trial[ok]
            found[sub[ok]] = True
            t[sub[~ok]] *= 0.5
        return cand, found

    def rechart(rows):
        chart[rows] = np.argmax(np.abs(X[rows]), axis=1)
        X[rows] /= np.abs(X[rows, chart[rows]])[:, None]

    def record(rows, norms):
        for k, it, norm in zip(rows.tolist(), iterations[rows].tolist(), norms.tolist()):
            traces[k].append((it, norm))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flip = ~inside(X) & inside(-X)
        X[flip] = -X[flip]  # antipodal representative of the same projective point
        live = inside(X)
        for k in np.flatnonzero(~live):
            outcomes[k] = NoConvergence("start point does not satisfy the region signs")

        # Globalized phase: Newton direction with Armijo backtracking.
        polish_at = 1e-5 * max(1.0, loglik.total)
        globalized = live.copy()
        while True:
            rows = np.flatnonzero(globalized & (iterations < opts.max_iter))
            if not rows.size:
                break
            rechart(rows)
            norm = grad_norm(X[rows])
            record(rows, norm)
            done = (norm <= opts.tol) | (norm <= polish_at)
            if opts.adaptive_floor:
                done |= norm <= 8.0 * noise_floor(X[rows])  # at the roundoff floor
            globalized[rows[done]] = False
            rows = rows[~done]
            step, slope = newton_step(rows)
            current = loglik(X[rows])

            def armijo(sub, cand, t):
                gain = current[sub] + 1e-4 * t * slope[sub]
                return inside(cand, rows[sub]) & (loglik(cand) >= gain)

            cand, found = backtrack(rows, step, armijo)
            # A step too short to change x would repeat forever; it counts as none.
            found &= np.any(cand != X[rows], axis=1)
            X[rows[found]] = cand[found]
            iterations[rows] += 1
            globalized[rows[~found]] = False  # comparisons hit roundoff; polish below

        # Local phase: plain sign-guarded Newton, keep each row's best iterate.
        best_x = X.copy()
        best_norm = np.full(R, np.nan)
        best_norm[live] = grad_norm(X[live])
        polishing = live.copy()
        for _ in range(opts.polish_iters):
            rows = np.flatnonzero(polishing & ~(best_norm <= opts.tol))
            if not rows.size:
                break
            rechart(rows)
            step, _ = newton_step(rows)
            cand, found = backtrack(rows, step, lambda sub, cand, t: inside(cand, rows[sub]))
            polishing[rows[~found]] = False
            rows = rows[found]
            X[rows] = cand[found]
            iterations[rows] += 1
            norm = grad_norm(X[rows])
            record(rows, norm)
            better = norm < best_norm[rows]
            best_norm[rows[better]] = norm[better]
            best_x[rows[better]] = X[rows[better]]
            polishing[rows[~better & (norm > 10.0 * best_norm[rows])]] = False  # diverging

        # A NaN norm compares false, so it never counts as converged.
        converged = best_norm <= opts.tol
        if opts.adaptive_floor:
            converged[live] |= best_norm[live] <= 8.0 * noise_floor(best_x[live])
        for k in np.flatnonzero(live & ~converged):
            outcomes[k] = NoConvergence(
                f"gradient floor {best_norm[k]:.3e} above tolerance {opts.tol:.1e}",
                trace=traces[k],
            )

        rows = np.flatnonzero(live & converged)
        xn = np.array([normalize_parameter(x) for x in best_x[rows]]).reshape(-1, d)
        y = xn @ A.T
        top_eig = np.linalg.eigvalsh(free_hessian(rows, xn)[1])[:, -1]
        final_norm = np.linalg.norm(loglik.gradient(xn)[0], axis=1)
        logL = loglik(xn)
        p = y**2 / np.einsum("ri,ri->r", y, y)[:, None]
        underflow = np.any(y == 0.0, axis=1)
        sides = np.where(y > 0.0, 1.0, -1.0)
        left = np.any(sides * sides[:, :1] != signs[rows], axis=1)
    for i, k in enumerate(rows):
        if underflow[i]:
            outcomes[k] = NoConvergence(
                "coordinate underflow at convergence: cannot take the sign vector of a zero value"
            )
        elif left[i]:
            outcomes[k] = NoConvergence("converged point left its region", trace=traces[k])
        else:
            outcomes[k] = CriticalPoint(
                region=regions[k].sign,
                x=xn[i],
                y=y[i],
                p=p[i],
                logL=float(logL[i]),
                grad_norm=float(final_norm[i]),
                iterations=int(iterations[k]),
                hessian_max_eig=float(top_eig[i]),
            )
    return outcomes
