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
pass multiplies its iterates by A^T and takes their gradients and Hessians
once, and their logL, Armijo's baseline, only once some trial reaches an
Armijo test. It multiplies each trial point once, taking its logL only where
Armijo decides, so an accepted trial point is multiplied and evaluated again
at the top of the next pass, as the start is for its sign test and in the
first pass. A pass gathers each per-row table once: the sign vectors, the
charts' free coordinates and, with several data vectors, each row's data
vector, its sum and its flatness bound; with one data vector those three
are one value every row reads by broadcast. A row's bits do not depend
on work a pass skips because no row needs it, nor, for n < 16, on how many
rows ride with it (:func:`_product` gives a (3,20) draw where 34 of 191 rows
move when solved in 7-row blocks). Rows may carry their own data: the batch
takes a sequence of data vectors, checks each, solves every region for each
of them and returns one row of outcomes per data vector, which is how a
log-Voronoi scan solves all its samples at once; each row reads its own data
vector alone, so at any n its logL from given form values ignores the
others. :meth:`SolveAllResult.of` is the one rule that turns a row into the
converged points, the MLE and the failures. A row's chart pins its largest
coordinate and hops when another one takes over, so iterates stay bounded. A
pass tests every row's chart Hessian for negative definiteness by Cholesky
and solves every row's Newton system, each in one stacked call that returns
NaN for the rows LAPACK fails on; only a row that fails the test gets its
eigenvalues and is ridged, by ``SHIFT_MARGIN * scale`` doubled until the
smallest eigenvalue of -H plus the ridge is positive, scale being the
largest |diagonal entry| of H (Nocedal & Wright 2006, section 3.4). A found
row's one trial is its last Newton step; any other row's line search starts
at t = min(1, TO_WALL * wall), wall being the step length at which the
Newton step reaches the nearest hyperplane: near a degeneration the critical
point sits close to a wall and the Newton step overshoots it, and halving
down from t = 1 would spend one evaluation per halving (the
fraction-to-the-boundary rule of interior-point methods; Nocedal & Wright
2006, section 19.2).

The solver has one setting, ``tol``: a row is found when its Newton
decrement lambda, which is affine-invariant and counts in units of logL
(Boyd & Vandenberghe 2004, section 9.5.1), satisfies lambda / sqrt(sum(s))
< tol, whatever the scale of the data; the test is unsquared, so no tiny
tol underflows to 0. ``MAX_ITER`` caps the passes; a row that is found or takes
no step leaves for good; a point's ``iterations`` is the pass that found it.
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
    """P @ Q, with a one-row P padded to two rows: numpy multiplies a one-row
    P through BLAS gemv, which rounds otherwise than gemm. P is copied only
    when it is padded; copying a transposed view sends gemm down another
    kernel.

    That makes each row's bits independent of how many rows come along only
    while Q has fewer than 16 rows. From 16 on, OpenBLAS 0.3.31 (Haswell
    kernels) can round a row of gemm otherwise as the row count changes:
    on the (3,20) draw of random.Random(1) (entries -99..99, data
    randint(1, 50) drawn after it, 191 regions), solving in 7-row blocks
    gives 34 rows another x than the whole batch, and one region at a time
    67, by at most 2.2e-16 and with equal iteration counts."""
    if len(P) != 1:
        return P @ Q
    return (np.repeat(P, 2, axis=0) @ Q)[:1]


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _newton_step(g, H):
    """Ascent direction solve(-H, g) for each row of an (R, m) stack of free
    gradients and (R, m, m) Hessians, its slope g . step and the rows whose
    H was ridged: only those failing the Cholesky test for negative
    definiteness, which alone get their eigenvalues. A definite Hessian,
    however stiff, gets the pure Newton step, whose slope is the decrement;
    shifting it would wreck the soft directions during tracking. A row whose
    H is not finite, or whose eigenvalues or system LAPACK fails on (its
    stacked calls return NaN for those matrices), gets a NaN step. The
    identity and the fix-ups of non-finite rows are built only when some
    row needs them."""
    M = -H
    bad = (~np.isfinite(M).all(axis=(1, 2))).nonzero()[0]
    if bad.size:
        M[bad] = np.eye(H.shape[-1])  # keeps the factorizations going; the step is discarded
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
        M[ridged] += ridge[:, None, None] * np.eye(H.shape[-1])
        ridged[ridged] = ridge > 0.0
    step = _umath_linalg.solve(M, g[:, :, None], signature="dd->d")[:, :, 0]
    if bad.size:
        step[bad] = np.nan
    return step, np.einsum("ri,ri->r", g, step), ridged


class Likelihood:
    """logL(y) = sum_i s_i log(l_i(y)^2 / q(y)), its gradient and its ambient
    Hessian on every row y of an (R, d) stack, read from the stack's (R, n)
    form values V = Y A^T, which every caller has already computed for its
    sign or hyperplane test: calling it gives logL alone,
    :meth:`derivatives` gives (G, H) and :meth:`hessian` (logL, G, H).

    The one copy of these formulas, which the Newton batch below runs. Built
    once per (float A, s), where s is one data vector or a (K, n) stack of
    them; each row reads only the data vector ``which`` names (an array in
    the batch, or the scalar 0, the default, for one data vector), so at any
    n its logL ignores the others and no (rows, K) array forms.
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
        weighted = (2.0 * np.log(np.abs(self._kept(V))) * self._S[which]).sum(axis=1)
        return weighted - self.totals[which] * np.log(np.einsum("ri,ri->r", V, V))

    def hessian(self, V, which=0):
        """(logL, G, H): the log-likelihoods and :meth:`derivatives`."""
        return (self(V, which), *self.derivatives(V, which))

    def derivatives(self, V, which=0):
        """(G, H): the gradient rows sum_i (2 s_i / l_i) A_i - (2 sum s / q)
        A^T A y and the (R, d, d) stack of Hessians, without the logL, which
        a Newton pass takes only once a trial's Armijo test reads it."""
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
        return G, H


class CriticalPoint(Record):
    # region is a SignVector; x, y and p are float arrays
    __slots__ = ("region", "x", "y", "p", "logL", "grad_norm", "iterations", "hessian_max_eig")

    # A batch builds one per region, and Record's generic __init__ takes longer.
    def __init__(self, region, x, y, p, logL, grad_norm, iterations, hessian_max_eig):
        for setter, value in zip(self._setters, (region, x, y, p, logL, grad_norm, iterations, hessian_max_eig)):
            setter(self, value)


class SolveAllResult(Record):
    __slots__ = ("points", "mle_index", "failures")

    @property
    def mle(self) -> CriticalPoint:
        return self.points[self.mle_index]

    @classmethod
    def of(cls, regions, outcomes) -> SolveAllResult:
        """The converged points in region order, the argmax of their logL and
        the (region, error) failures; when none converged, NoConvergence
        carrying every failure. Of equal logL the first point is the MLE."""
        points = [out for out in outcomes if type(out) is CriticalPoint]
        failures = [(r, out) for r, out in zip(regions, outcomes) if type(out) is not CriticalPoint]
        if not points:
            raise NoConvergence("no region converged", trace=[], failures=failures)
        logL = [point.logL for point in points]
        return cls(points, logL.index(max(logL)), failures)


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
    g . solve(-H, g) >= 0 on its chart and H not ridged, satisfies
    lambda / sqrt(sum(s)) < ``tol``; that last Newton step is then its one
    trial, kept if it keeps the signs. Other rows halve t from the module's
    min(1, TO_WALL * wall) until the step keeps the signs and passes Armijo,
    which once lambda^2 is below ``1e-5 * max(1, sum(s))`` is roundoff and
    left to the sign guard.

    A row that finds no CriticalPoint ends in a NoConvergence whose message
    names which of seven ways it ended:

    - "start point does not satisfy the region signs": its start lies
      outside its region, and so does the antipodal point;
    - "Newton decrement ... not below tolerance ...": it stalled, its
      backtracking finding no step or its iterations running out;
    - "Newton step has negative slope ... on a Cholesky-tested Hessian": its
      step descends on an H that passed the Cholesky test yet is
      numerically singular, and its trace ends in NaN;
    - "coordinate underflow at convergence: ...": a form value is 0 where
      it is found, so the point has no sign vector;
    - "converged point left its region";
    - "Hessian at convergence has no finite eigenvalues";
    - "Hessian at convergence is not negative definite: ...", the chart
      Hessian where it is found.

    Each carries the row's (iteration, lambda / sqrt(sum(s))) trace, save
    that a start outside its region carries none.

    A pass skips what none of its rows needs (the ridge, a logL Armijo does
    not decide, the iterates' logL when no trial reaches Armijo), and the
    ridge touches only the rows that need it. At most ``MAX_ITER`` passes
    run; a row leaves for good once found or once it takes no step, and a
    found point's ``iterations`` is the pass that found it.
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
    # Each row's data vector, that vector's sum and the slope below which the
    # row is flat; with one data vector, the one value that every row shares.
    which = np.arange(N) // R if K > 1 else 0
    totals = loglik.totals[which]
    flat_below = 1e-5 * np.maximum(1.0, totals)
    lanes = np.arange(N)[:, None]  # row positions, for gathers by row
    frees = np.array([[j for j in range(d) if j != c] for c in range(d)])  # free coordinates of each chart
    # Each chart's minor as flat positions in a d x d Hessian, and each row's offset in a flat (N, d, d) stack.
    minors, corners = frees[:, :, None] * d + frees[:, None, :], lanes[:, :, None] * (d * d)
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
    found_at = np.full(N, -1)  # the pass that found each row (its iteration count), or -1
    passes = []  # (rows, lambda / sqrt(sum(s))) of every pass, in order
    outcomes = [None] * N

    def inside(V, sign):
        return (sign * V > 0.0).all(axis=1)

    def chart_minor(pins, H):
        """Each row's Hessian restricted to the free coordinates of its chart, in one flat gather."""
        return H.reshape(-1)[corners[: len(pins)] + minors[pins]]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        V = _product(X, A.T)
        flip = ~inside(V, signs) & inside(-V, signs)
        X[flip], V[flip] = -X[flip], -V[flip]  # antipodal representative of the same projective point
        live = inside(V, signs)
        # Each row's failure message once known; a stalled row's is told by its last decrement.
        why = [None if ok else "start point does not satisfy the region signs" for ok in live.tolist()]

        rows = live.nonzero()[0]
        for iteration in range(MAX_ITER):
            if not rows.size:
                break
            sign, x = signs[rows], X[rows]  # rechart x: pin each row's largest coordinate at +-1
            of, total, flat_at = (which[rows], totals[rows], flat_below[rows]) if K > 1 else (which, totals, flat_below)
            size, lane = np.abs(x), lanes[: len(rows)]
            chart[rows] = pins = size.argmax(axis=1)
            x = x / size.max(axis=1)[:, None]
            at = _product(x, A.T)  # the iterates' form values
            G, H = loglik.derivatives(at, of)
            free = frees[pins]
            free_step, slope, ridged = _newton_step(G[lane, free], chart_minor(pins, H))
            step = np.zeros((len(rows), d))
            step[lane, free] = free_step
            lam = np.sqrt(slope / total)  # NaN for a negative slope
            passes.append((rows, lam))
            steady = ~ridged
            descends = steady & (slope < 0.0)  # H passed the Cholesky test yet is singular
            for k, value in zip(rows[descends].tolist(), slope[descends].tolist()):
                why[k] = f"Newton step has negative slope {value:.3e} on a Cholesky-tested Hessian"
            # A found row's one trial is its last step, at t = 1. Any other
            # row's first trial stops TO_WALL of the way to the nearest
            # hyperplane the step heads for: wall = min (s_i V_i) / -(s_i A_i
            # step) over i with s_i A_i step < 0.
            found = steady & (lam < tol)  # NaN compares false
            flat = found | (steady & (slope <= flat_at))
            along = sign * _product(step, A.T)
            wall = np.where(along < 0.0, sign * at / -along, np.inf).min(axis=1)
            t = np.where(found, 1.0, np.minimum(1.0, TO_WALL * wall))
            # Halve t until the trial keeps the signs and passes Armijo or the row
            # is found or flat; a trial equal to x is no step, as it would repeat.
            # The iterates' logL, Armijo's baseline, is taken once a trial needs it.
            stepped = np.zeros(len(rows), dtype=bool)
            current = None
            sub = (~descends).nonzero()[0]  # the rows still halving
            for _ in range(MAX_BACKTRACKS):
                if not sub.size:
                    break
                start = x[sub]
                trial = start + t[sub, None] * step[sub]
                V = _product(trial, A.T)
                ok = inside(V, sign[sub])
                armijo = ok & ~flat[sub]
                if armijo.any():
                    if current is None:
                        current = loglik(at, of)
                    j = sub[armijo]
                    ok[armijo] = loglik(V[armijo], of[j] if K > 1 else of) >= current[j] + 1e-4 * t[j] * slope[j]
                took = ok & (trial != start).any(axis=1)
                moved = sub[took]
                x[moved], stepped[moved] = trial[took], True
                sub = sub[~ok & ~found[sub]]
                t[sub] *= 0.5
            X[rows] = x
            found_at[rows[found]] = iteration
            rows = rows[stepped & ~found]

        rows = (found_at >= 0).nonzero()[0]
        xn = normalize_parameter(X[rows])
        y = _product(xn, A.T)
        logL, G, H = loglik.hessian(y, which[rows] if K > 1 else which)
        free_H = chart_minor(chart[rows], H)
        # A Hessian holding an infinity or a NaN fails its row unseen by LAPACK.
        bad = (~np.isfinite(free_H).all(axis=(1, 2))).nonzero()[0]
        if bad.size:
            free_H[bad] = 0.0
        top_eig = _umath_linalg.eigvalsh_lo(free_H, signature="d->d")[:, -1]
        if bad.size:
            top_eig[bad] = np.nan
        final_norm = np.sqrt((G * G).sum(axis=1))  # np.linalg.norm's sum of squares
        p = y**2 / np.einsum("ri,ri->r", y, y)[:, None]
        underflow = (y == 0.0).any(axis=1)
        sign = signs[rows]
        left = ~(inside(y, sign) | inside(-y, sign))
        fine = ~(underflow | left) & np.isfinite(top_eig) & (top_eig < 0.0)
    logL, final_norm, top_eig, counts = logL.tolist(), final_norm.tolist(), top_eig.tolist(), found_at.tolist()
    fine, underflow, left, xn, y, p = fine.tolist(), underflow.tolist(), left.tolist(), list(xn), list(y), list(p)
    for i, k in enumerate(rows.tolist()):
        if fine[i]:
            outcomes[k] = CriticalPoint(
                regions[k % R].sign, xn[i], y[i], p[i], logL[i], final_norm[i], counts[k], top_eig[i]
            )
        elif underflow[i]:
            why[k] = "coordinate underflow at convergence: cannot take the sign vector of a zero value"
        elif left[i]:
            why[k] = "converged point left its region"
        elif not isfinite(top_eig[i]):
            why[k] = "Hessian at convergence has no finite eigenvalues"
        else:
            why[k] = f"Hessian at convergence is not negative definite: largest eigenvalue {top_eig[i]:.3e}"
    # Every row still without an outcome failed. A row runs in consecutive passes
    # from the first, so once a pass holds none of these rows no later one does.
    trail = {k: [] for k, out in enumerate(outcomes) if out is None}
    for ran, lam in passes if trail else ():
        hit = np.isin(ran, list(trail))
        if not hit.any():
            break
        for k, value in zip(ran[hit].tolist(), lam[hit].tolist()):
            trail[k].append((len(trail[k]), value))
    for k, trace in trail.items():
        message = why[k] or f"Newton decrement {trace[-1][1]:.3e} not below tolerance {tol:.1e}"
        outcomes[k] = NoConvergence(message, trace)
    return [outcomes[k * R : (k + 1) * R] for k in range(K)]
