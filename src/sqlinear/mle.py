"""The float side of the model: the likelihood formulas, maximum-likelihood
solving in every region at once, and the determinantal rank test.

:func:`to_floats` is the one place where exact values turn into doubles.

Every region of the arrangement complement carries exactly one critical
point of the log-likelihood, and it is a local maximum, so damped Newton
with steps rejected whenever they would flip the sign of any form converges
from any interior start of the region. All regions are solved as one (R, d)
stack of iterates: each pass evaluates the whole stack through
:class:`Likelihood`, which holds the only copy of the log-likelihood,
gradient and Hessian formulas, and every decision is made per row through
masks. At these sizes a pass costs its numpy calls, not its arithmetic. A
pass multiplies its iterates by A^T and evaluates them once, and each trial
point once, so an accepted trial point is multiplied and evaluated again at
the top of the next pass, as the start is for the live test and in the first
pass. A row's bits do not depend on work a pass skips because no row needs
it, nor, for n < 16, on how many rows ride with it (:func:`_product` gives a
(3,20) draw where 34 of 191 rows move when solved in 7-row blocks). Rows may
carry their own data: the batch takes a sequence of data vectors, checks
each, solves every region for each of them and returns one row of outcomes
per data vector, which is how a log-Voronoi scan solves all its samples at
once; :meth:`SolveAllResult.of` is the one rule that turns a row into the
converged points, the MLE and the failures. A row's chart pins its largest
coordinate and hops when another one takes over, so iterates stay bounded. A
pass tests every row's chart Hessian for negative definiteness by Cholesky
and solves every row's Newton system, each in one stacked call that returns
NaN for the rows LAPACK fails on; only a row that fails the test gets its
eigenvalues and is ridged, by ``SHIFT_MARGIN * scale`` doubled until the
smallest eigenvalue of -H plus the ridge is positive, scale being the
largest |diagonal entry| of H (Nocedal & Wright 2006, section 3.4). Each
row's line search starts at t = min(1, TO_WALL * wall), wall being the step
length at which the Newton step reaches the nearest hyperplane: near a
degeneration the critical point sits close to a wall and the Newton step
overshoots it, and halving down from t = 1 would spend one evaluation per
halving (the fraction-to-the-boundary rule of interior-point methods;
Nocedal & Wright 2006, section 19.2).

The solver has one setting, ``tol``: a row is found when its Newton
decrement lambda, which is affine-invariant and counts in units of logL
(Boyd & Vandenberghe 2004, section 9.5.1), satisfies lambda / sqrt(sum(s))
< tol, whatever the scale of the data; the test is unsquared, so no tiny
tol underflows to 0. The iteration cap ``MAX_ITER`` is fixed.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from operator import truediv

import numpy as np
# The LAPACK gufuncs that np.linalg.cholesky, solve and eigvalsh call. Each
# works on every matrix of a stack alone and, where np.linalg would raise,
# sets the invalid flag and returns NaN for the matrices LAPACK fails on.
from numpy.linalg import _umath_linalg

from .arrangement import Record, Region, enumerate_regions
from .errors import BoundaryData, NoConvergence, ValidationError, ZeroPoint
from .model import SquaredLinearModel


# A Hessian H that is not negative definite is ridged by SHIFT_MARGIN times
# H's largest |diagonal entry|, doubled until -H plus the ridge is positive
# definite; the fraction of the way along the Newton step to the nearest
# hyperplane at which the line search starts, since near a degeneration the
# step overshoots a wall; the most halvings of a step; and the most
# iterations per region.
SHIFT_MARGIN = 1e-8
TO_WALL = 0.9
MAX_BACKTRACKS = 50
MAX_ITER = 200


def to_floats(values, name: str) -> np.ndarray:
    """Exact values (a vector or a matrix) as a float array; a value beyond
    double range is invalid input, not an infinity. A Fraction n / d turns
    into the integer quotient n / d: the same correctly rounded double as
    float(), which costs three Python calls per entry. A Region stands for
    its witness: each entry is the quotient v / max|v| of its integer ray."""
    try:
        return np.array(_quotients(values), dtype=float)
    except OverflowError as err:
        raise ValidationError(f"field {name!r} holds a value beyond double range") from err
    except (TypeError, ValueError) as err:  # ragged nesting, or an entry that is no real number
        raise ValidationError(f"field {name!r} is not a rectangular array of numbers") from err


def _quotients(values, depth=2):
    """``values`` (a vector or a matrix) with each Fraction as n / d and each Region as its witness."""
    if type(values) is Region:
        top = max(map(abs, values.ray))
        return [v / top for v in values.ray]
    if not isinstance(values, (list, tuple)):
        return values
    if depth == 1:
        return [truediv(*v.as_integer_ratio()) if type(v) is Fraction else v for v in values]
    return [truediv(*v.as_integer_ratio()) if type(v) is Fraction else _quotients(v, 1) for v in values]


def normalize_parameter(x) -> np.ndarray:
    """Unit-norm representative with positive first nonzero coordinate, of
    one vector or of each row of a stack. Each norm is sqrt(x . x), which on
    one vector is what np.linalg.norm takes, so a row normalizes bit for bit
    alike alone and in a stack."""
    x = to_floats(x, "x")
    norm = np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
    if np.any(norm == 0.0):
        raise ZeroPoint("zero vector is not a projective point")
    x = x / norm
    lead = np.take_along_axis(x, np.argmax(np.abs(x) > 1e-12, axis=-1)[..., None], -1)
    return np.where(lead < -1e-12, -x, x)


def _product(P, Q):
    """P @ Q, with a one-row P padded to two rows and a one-column Q to two
    columns: numpy multiplies either through BLAS gemv, which rounds otherwise
    than gemm. An operand is copied only when it is padded; copying a
    transposed view sends gemm down another kernel.

    That makes each row's bits independent of how many rows come along only
    while Q has fewer than 16 rows. From 16 on, OpenBLAS 0.3.31 (Haswell
    kernels) can round a row of gemm otherwise as the row count changes:
    on the (3,20) draw of random.Random(1) (entries -99..99, data
    randint(1, 50) drawn after it, 191 regions), solving in 7-row blocks
    gives 34 rows another x than the whole batch, and one region at a time
    67, by at most 2.2e-16 and with equal iteration counts."""
    rows, cols = len(P), Q.shape[1]
    if rows == 1:
        P = np.repeat(P, 2, axis=0)
    if cols == 1:
        Q = np.repeat(Q, 2, axis=1)
    return (P @ Q)[:rows, :cols]


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _newton_step(g, H):
    """Ascent direction solve(-H, g) for each row of an (R, m) stack of free
    gradients and (R, m, m) Hessians, its slope g . step and the rows whose
    H was ridged: only those failing the Cholesky test for negative
    definiteness, which alone get their eigenvalues. A definite Hessian,
    however stiff, gets the pure Newton step, whose slope is the decrement;
    shifting it would wreck the soft directions during tracking. A row whose
    H is not finite, or whose eigenvalues or system LAPACK fails on (its
    stacked calls return NaN for those matrices), gets a NaN step."""
    M, eye = -H, np.eye(H.shape[-1])
    bad = ~np.isfinite(M).all(axis=(1, 2))
    M[bad] = eye  # keeps the factorizations going; the step is discarded
    ridged = np.isnan(_umath_linalg.cholesky_lo(M, signature="d->d")).any(axis=(1, 2))
    if ridged.any():
        low = _umath_linalg.eigvalsh_lo(M[ridged], signature="d->d")[:, 0]
        scale = np.abs(np.diagonal(M[ridged], axis1=1, axis2=2)).max(axis=1)
        scale[scale == 0.0] = 1.0
        # ridge = base * 2^k for the least k >= 0 with lam_min + ridge > 0; the
        # sign of that sum is exact, so two guards undo a rounded log2.
        base = SHIFT_MARGIN * scale
        ridge = np.where(low > 0.0, 0.0, base * 2.0 ** np.ceil(np.log2(np.maximum(-low, base) / base)))
        ridge[(ridge > base) & (low + ridge / 2.0 > 0.0)] /= 2.0
        ridge[~(low + ridge > 0.0)] *= 2.0
        M[ridged] += ridge[:, None, None] * eye
        ridged[ridged] = ridge > 0.0
    step = _umath_linalg.solve(M, g[:, :, None], signature="dd->d")[:, :, 0]
    step[bad] = np.nan
    return step, np.einsum("ri,ri->r", g, step), ridged


class Likelihood:
    """logL(y) = sum_i s_i log(l_i(y)^2 / q(y)), its gradient and its ambient
    Hessian on every row y of an (R, d) stack, read from the stack's (R, n)
    form values V = Y A^T, which every caller has already computed for its
    sign or hyperplane test: calling it gives logL alone, and
    :meth:`hessian` gives (logL, G, H) from one pass.

    The one copy of these formulas, which the Newton batch below runs. Built
    once per (float A, s), where s is one data vector or a (K, n) stack of
    them; ``which`` names each row's data vector, an array in the batch or
    the scalar 0 (the default) when there is one data vector.
    States of weight 0 in every data vector drop out of the sums, also on
    their own hyperplanes; when there are none, the form values are used
    without a copy.
    """

    def __init__(self, A: np.ndarray, s: np.ndarray):
        S = np.atleast_2d(s)
        weighted = np.any(S != 0.0, axis=0)
        self._keep = None if weighted.all() else np.flatnonzero(weighted)
        self._S, self._A = (S, A) if self._keep is None else (S[:, self._keep], A[self._keep])
        # Near double range A^T A and the outer products A_i A_i^T overflow;
        # every row's step is then non-finite and fails.
        with np.errstate(over="ignore"):
            self.A, self.totals, self.gram = A, S.sum(axis=1), A.T @ A
            self._outer = (self._A[:, :, None] * self._A[:, None, :]).reshape(len(self._A), -1)

    def _kept(self, V):
        return V if self._keep is None else V[:, self._keep]

    def __call__(self, V, which=0):
        weighted = _product(2.0 * np.log(np.abs(self._kept(V))), self._S.T)
        return weighted[np.arange(len(V)), which] - self.totals[which] * np.log(np.einsum("ri,ri->r", V, V))

    def hessian(self, V, which=0):
        """(logL, G, H) from one pass: the log-likelihoods, the gradient rows
        sum_i (2 s_i / l_i) A_i - (2 sum s / q) A^T A y and the (R, d, d)
        stack of Hessians."""
        s, total, W = self._S[which], self.totals[which], self._kept(V)
        q = np.einsum("ri,ri->r", V, V)
        U = _product(V, self.A)  # the rows A^T A y
        ratio = 2.0 * total / q
        G = _product(2.0 * s / W, self._A) - ratio[:, None] * U
        H = (
            -_product(2.0 * s / W**2, self._outer).reshape(len(V), *self.gram.shape)
            - ratio[:, None, None] * self.gram
            + (4.0 * total / q**2)[:, None, None] * (U[:, :, None] * U[:, None, :])
        )
        return self(V, which), G, H


class CriticalPoint(Record):
    # region is a SignVector; x, y and p are float arrays
    __slots__ = ("region", "x", "y", "p", "logL", "grad_norm", "iterations", "hessian_max_eig")


class SolveAllResult(Record):
    __slots__ = ("points", "mle_index", "failures")

    @property
    def mle(self) -> CriticalPoint:
        return self.points[self.mle_index]

    @classmethod
    def of(cls, regions, outcomes) -> SolveAllResult:
        """The converged points in region order, the argmax of their logL and
        the (region, error) failures; when none converged, NoConvergence
        carrying every failure."""
        points = [out for out in outcomes if isinstance(out, CriticalPoint)]
        failures = [(r, out) for r, out in zip(regions, outcomes) if not isinstance(out, CriticalPoint)]
        if not points:
            raise NoConvergence("no region converged", trace=[], failures=failures)
        return cls(points, max(range(len(points)), key=lambda i: points[i].logL), failures)


def likelihood_matrix(model: SquaredLinearModel, s, x) -> np.ndarray:
    """The (n-d+2) x n float matrix [s; l^2(x); B diag(l(x))] whose maximal
    minors present the likelihood correspondence. Row one depends only on
    the data, the rest only on the parameter point.

    ValidationError names a field of the wrong shape, x needing d entries
    and s n; ZeroPoint is raised when every form vanishes at x."""
    x, s = to_floats(x, "x"), to_floats(s, "s")
    for name, values, size in (("x", x, model.d), ("s", s, model.n)):
        if values.shape != (size,):
            raise ValidationError(f"field {name!r} needs {size} entries, got shape {values.shape}")
    values = model.A_float @ x
    if not np.any(values):
        raise ZeroPoint("zero vector is not a projective point")
    return np.vstack([s, values**2, to_floats(model.B.B, "B") * values])


def rank_defect(matrix: np.ndarray, tol: float) -> int:
    """Row count minus numerical rank at relative SVD threshold ``tol``."""
    if not 0.0 < tol < 1.0:  # NaN fails both comparisons
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[0] == 0.0:
        return matrix.shape[0]
    return matrix.shape[0] - int(np.sum(sigma > tol * sigma[0]))


def _check_positive_data(given, n):
    s = to_floats(given, "s")
    if s.shape != (n,):
        raise ValidationError(f"data vector must have n = {n} entries, got shape {s.shape}")
    with np.errstate(over="ignore"):
        if not np.isfinite(s.sum()):  # also catches NaN and infinite entries
            raise ValidationError("data vector must be finite, and so must its sum")
    if np.any(s <= 0.0):
        if all(v > 0 for v in given):
            raise ValidationError(f"data entry {s.tolist().index(0.0) + 1} underflows to 0 in double precision")
        raise BoundaryData(
            "data vector has nonpositive entries; use the degeneration module"
        )
    return s


def solve_all(
    model: SquaredLinearModel,
    s,
    tol: float = 1e-10,
    regions=None,
) -> SolveAllResult:
    """One critical point per region; the argmax of logL is the MLE.

    All regions are solved in one batch. A region that fails is recorded in
    ``failures`` with its error while the rest solve; results are in
    canonical region order. When no region converges, the NoConvergence
    raised carries every region's failure.
    """
    if regions is None:
        regions = enumerate_regions(model.arr)
    (outcomes,) = _solve_batch(model, [s], regions, tol)
    return SolveAllResult.of(regions, outcomes)


def _solve_batch(model, data, regions, tol, starts=None) -> list:
    """Damped Newton for every region at once, for each of a sequence of
    data vectors, each checked here to be positive and finite.

    Returns one row per data vector, holding one outcome per region in
    order: its CriticalPoint, or the NoConvergence that stopped it.
    ``starts`` optionally gives one row of starts per data vector, one per
    region: float points, or Regions standing for their witnesses, each
    converted for every row it starts; without them every row starts from
    its region's witness, each region converted once for all the data
    vectors. A start of other than d entries is a ValidationError.

    A row is found when its Newton decrement lambda, with lambda^2 =
    g . solve(-H, g) on its chart and H not ridged, satisfies
    lambda / sqrt(sum(s)) < ``tol``; it then takes that last Newton step if
    the step keeps the signs. Other rows backtrack from t = min(1, TO_WALL
    * wall), wall being the t at which the step reaches the nearest
    hyperplane, until the step keeps the signs and passes Armijo: near a
    degeneration the Newton step overshoots a wall, and its first trial
    then stops short of it. Once lambda^2 is below
    ``1e-5 * max(1, sum(s))``, likelihood comparisons are roundoff and the
    sign guard alone decides. A row whose backtracking finds no step, or
    that runs out of iterations, fails.

    A pass skips what none of its rows needs (the ridge, the found rows'
    last step), and the ridge touches only the rows that need it.
    """
    S = np.array([_check_positive_data(s, model.n) for s in data]).reshape(-1, model.n)
    if not 0.0 <= tol < np.inf:  # NaN fails both comparisons
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    if tol >= 1.0:
        raise ValidationError(f"tol must be below 1, got {tol}")
    A = model.A_float
    loglik = Likelihood(A, S)
    K, R, d = len(S), len(regions), model.d
    N = K * R
    which = np.arange(N) // R  # each row's data vector
    lanes = np.arange(N)[:, None]  # row positions, for gathers by row
    frees = np.array([[j for j in range(d) if j != c] for c in range(d)])  # free coordinates of each chart
    totals = loglik.totals[which]
    signs = np.tile(np.array([r.sign.signs for r in regions], dtype=float).reshape(R, model.n), (K, 1))
    starts = [x for row in starts or () for x in row]
    X = to_floats(starts, "start") if starts else np.tile(to_floats(regions, "start").reshape(R, d), (K, 1))
    if N and X.shape != (N, d):
        shape = next((s for s in (np.shape(x) for x in starts if type(x) is not Region) if s != (d,)), None)
        if shape is None:
            raise ValidationError(f"field 'start' needs {N} points, got {len(starts)}")
        raise ValidationError(f"field 'start' needs {d} entries, got shape {shape}")
    X = X.reshape(N, d)
    chart = np.zeros(N, dtype=int)  # each row's pinned coordinate, set on every pass
    iterations = np.zeros(N, dtype=int)
    history = np.empty((N, MAX_ITER))  # lambda / sqrt(sum(s)) at each evaluated iteration
    outcomes = [None] * N

    def inside(V, rows=slice(None)):
        return (signs[rows] * V > 0.0).all(axis=1)

    def free_hessian(rows, G, H):
        """The gradient and Hessian restricted to the free coordinates of each
        row's chart."""
        free, lane = frees[chart[rows]], lanes[: len(rows)]
        return G[lane, free], H[lane[:, :, None], free[:, :, None], free[:, None, :]], free

    def trace(k):
        return list(enumerate(history[k, : iterations[k] + converged[k]].tolist()))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        V = _product(X, A.T)
        flip = ~inside(V) & inside(-V)
        X[flip], V[flip] = -X[flip], -V[flip]  # antipodal representative of the same projective point
        live = inside(V)
        for k in (~live).nonzero()[0]:
            outcomes[k] = NoConvergence("start point does not satisfy the region signs")

        flat_below = 1e-5 * np.maximum(1.0, totals)
        running = live.copy()
        converged = np.zeros(N, dtype=bool)
        while True:
            rows = (running & (iterations < MAX_ITER)).nonzero()[0]
            if not rows.size:
                break
            x = X[rows]  # rechart: pin each row's largest coordinate at +-1
            size = np.abs(x)
            chart[rows] = size.argmax(axis=1)
            X[rows] = x = x / size.max(axis=1)[:, None]
            V = _product(x, A.T)
            current, G, H = loglik.hessian(V, which[rows])
            g, H, free = free_hessian(rows, G, H)
            free_step, slope, ridged = _newton_step(g, H)
            step = np.zeros((len(rows), d))
            step[lanes[: len(rows)], free] = free_step
            lam = np.sqrt(np.maximum(slope, 0.0) / totals[rows])
            history[rows, iterations[rows]] = lam

            # Found rows take the last Newton step where it keeps the signs.
            done = ~ridged & (lam < tol)  # NaN compares false
            if done.any():
                last = rows[done]
                cand = x[done] + step[done]
                keep = inside(_product(cand, A.T), last)
                X[last[keep]] = cand[keep]
                converged[last] = True
                running[last] = False
                rest = ~done
                rows, x, step, slope, current, V, ridged = (a[rest] for a in (rows, x, step, slope, current, V, ridged))
            flat = ~ridged & (slope <= flat_below[rows])
            # The first trial stops TO_WALL of the way to the nearest hyperplane
            # the step heads for: wall = min (s_i V_i) / -(s_i A_i step) over
            # the forms whose signed value the step decreases.
            along = signs[rows] * _product(step, A.T)
            wall = np.where(along < 0.0, signs[rows] * V / -along, np.inf).min(axis=1)
            t = np.minimum(1.0, TO_WALL * wall)
            # Halve each row's t until its trial keeps the signs and passes
            # Armijo or the row is flat, at most MAX_BACKTRACKS times. A step
            # too short to change x would repeat forever; it counts as none.
            moved = np.zeros(len(rows), dtype=bool)
            sub = np.arange(len(rows))  # the rows still halving
            for _ in range(MAX_BACKTRACKS):
                if not sub.size:
                    break
                trial = x[sub] + t[sub, None] * step[sub]
                V = _product(trial, A.T)
                rises = loglik(V, which[rows[sub]]) >= current[sub] + 1e-4 * t[sub] * slope[sub]
                ok = inside(V, rows[sub]) & (rises | flat[sub])
                took = ok & (trial != x[sub]).any(axis=1)
                X[rows[sub[took]]] = trial[took]
                moved[sub[took]] = True
                sub = sub[~ok]
                t[sub] *= 0.5
            iterations[rows] += 1
            running[rows[~moved]] = False

        for k in (live & ~converged).nonzero()[0]:
            outcomes[k] = NoConvergence(
                f"Newton decrement {history[k, iterations[k] - 1]:.3e} not below tolerance {tol:.1e}",
                trace=trace(k),
            )

        rows = (live & converged).nonzero()[0]
        xn = normalize_parameter(X[rows])
        y = _product(xn, A.T)
        logL, G, H = loglik.hessian(y, which[rows])
        free_H = free_hessian(rows, G, H)[1]
        # A Hessian holding an infinity or a NaN fails its row unseen by LAPACK.
        bad = ~np.isfinite(free_H).all(axis=(1, 2))
        free_H[bad] = 0.0
        top_eig = _umath_linalg.eigvalsh_lo(free_H, signature="d->d")[:, -1]
        top_eig[bad] = np.nan
        final_norm = np.linalg.norm(G, axis=1)
        p = y**2 / np.einsum("ri,ri->r", y, y)[:, None]
        underflow = (y == 0.0).any(axis=1)
        left = ~(inside(y, rows) | inside(-y, rows))
    logL, final_norm, top_eig, counts = logL.tolist(), final_norm.tolist(), top_eig.tolist(), iterations.tolist()
    for i, k in enumerate(rows.tolist()):
        if underflow[i]:
            outcomes[k] = NoConvergence(
                "coordinate underflow at convergence: cannot take the sign vector of a zero value"
            )
        elif left[i]:
            outcomes[k] = NoConvergence("converged point left its region", trace=trace(k))
        elif not isfinite(top_eig[i]):
            outcomes[k] = NoConvergence("Hessian at convergence has no finite eigenvalues", trace=trace(k))
        else:
            outcomes[k] = CriticalPoint(
                regions[k % R].sign, xn[i], y[i], p[i], logL[i], final_norm[i], counts[k], top_eig[i]
            )
    return [outcomes[k * R : (k + 1) * R] for k in range(K)]
