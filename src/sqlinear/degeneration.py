"""Degenerate critical points and tropical maximum likelihood.

At a unit data vector e_i every region's critical point degenerates onto a
coordinate subspace: the vanishing coordinates J range over the subsets of
size < d avoiding i, and on each such support the point is cut out by the
kernel constraints in closed form. Tropically, data valuations w with a
strict minimum at i map to critical-point valuations z = sum_{j in J}
(w_j - w_i) e_j. Both facts are checked numerically by tracking each
region's solution along a data curve s(eps) = (eps^w_1, ..., eps^w_n)
and fitting the decay slopes. The curve is solved as s(eps) / eps^w_i,
which has the same critical points, so a track depends on w only through
w - w_i.

The module splits at the float boundary. The closed forms
(:func:`unit_data_solutions`, :func:`tropical_predictions`) are exact
rational arithmetic and load no numpy; :func:`estimate_valuations` imports
numpy and :mod:`.mle` when called.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from fractions import Fraction

from . import ratlin
from .arrangement import Record, enumerate_regions
from .errors import AnchorNotUnique, PathLost, RankDeficient, ValidationError
from .model import SquaredLinearModel

DEFAULT_EPS_GRID = (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5)


class DegenerateSolution(Record):
    """Closed-form critical point for data e_anchor with support complement J.

    ``y`` is the primitive integer representative with positive anchor
    coordinate; B y = 0 holds exactly and y_j = 0 exactly on J. The anchor is
    the caller's: :func:`unit_data_solutions` takes it. ``error`` names why
    ``y`` is empty or not generic, and is None otherwise.
    """

    __slots__ = ("J", "y", "generic_flag", "error")


class TropicalData(Record):
    """Rational valuation vector w with a strict minimum at ``anchor``."""

    __slots__ = ("w", "anchor")

    def __init__(self, w, anchor: int):
        w = tuple(ratlin.as_fraction(v) for v in w)
        low = min(w)
        support = [i for i, v in enumerate(w) if v == low]
        # States are named 1-based, as on the command line.
        if len(support) != 1:
            raise AnchorNotUnique(f"minimum of w attained at states {[i + 1 for i in support]}")
        if support[0] != anchor:
            raise AnchorNotUnique(f"anchor is not the strict minimum of w, which is at state {support[0] + 1}")
        super().__init__(w, anchor)


class TropicalPoint(Record):
    """Valuation vector modulo all-ones shifts, canonicalized by z_anchor = 0."""

    __slots__ = ("z", "J")


class ValuationEstimate(Record):
    __slots__ = ("region", "slopes", "point", "residual", "x_track")  # x_track: the solver's x per eps, largest first


def admissible_supports(n: int, anchor: int, d: int):
    """Subsets J of [n] - {anchor} with |J| <= d-1, largest first, lex within."""
    others = [j for j in range(n) if j != anchor]
    return [J for size in range(d - 1, -1, -1) for J in itertools.combinations(others, size)]


def unit_data_solutions(model: SquaredLinearModel, anchor: int) -> list:
    """All degenerate critical points for data s = e_anchor, exactly.

    For each admissible support J, with K the coordinates outside J and the
    anchor, the Gram system (B_K B_K^T) u = b_anchor is solved exactly and
    y_K = -B_K^T u, y_anchor = 1, so B y = 0. B's rows are the primitive
    integer rows of :func:`.arrangement.kernel_complement`, so the Gram
    system has integer entries. ``generic_flag`` is False on an
    entry when its free coordinates contain an unexpected zero or when it
    collides with another entry, which is exactly the failure of the
    genericity hypothesis for distinct supports.
    """
    arr = model.arr
    n, d = arr.n, arr.d
    if arr.rank() != d:
        raise RankDeficient("degenerate solutions need an essential arrangement")
    if not 0 <= anchor < n:
        raise RankDeficient(f"anchor {anchor} out of range for n = {n}")
    B = model.B.B
    solutions = []
    for J in admissible_supports(n, anchor, d):
        keep = [k for k in range(n) if k != anchor and k not in J]
        gram = [[sum(r[k] * c[k] for k in keep) for c in B] for r in B]
        u = ratlin.solve(gram, [r[anchor] for r in B])
        if u is None:
            solutions.append(DegenerateSolution(J=J, y=(), generic_flag=False, error="singular Gram matrix"))
            continue
        y = [Fraction(0)] * n
        y[anchor] = Fraction(1)
        for k in keep:
            y[k] = -sum(c * r[k] for c, r in zip(u, B))
        prim = ratlin.primitive(y)
        if prim[anchor] < 0:
            prim = tuple(-v for v in prim)
        solutions.append(DegenerateSolution(J=J, y=prim, generic_flag=all(y[k] != 0 for k in keep), error=None))
    # Collisions between supports break genericity for all involved entries.
    counts = Counter(sol.y for sol in solutions if sol.y)
    return [
        DegenerateSolution(sol.J, sol.y, False, "support collision") if counts[sol.y] > 1 else sol
        for sol in solutions
    ]


def tropical_predictions(
    model: SquaredLinearModel, trop: TropicalData, check_generic: bool = False
) -> list:
    """The mu predicted valuation vectors z = sum_{j in J} (w_j - w_anchor) e_j.

    The formula is proved for generic kernel pairs only. The genericity test
    is opt-in, as it solves every degenerate system: with
    ``check_generic=True`` a warning is attached when the closed-form
    degenerations collide. Each support's own verdict is the ``generic_flag``
    of ``unit_data_solutions(model, trop.anchor)``, and the caller should
    trust only supports where it holds.
    """
    _check_length(model, trop.w)
    w, anchor = trop.w, trop.anchor
    if check_generic and not all(sol.generic_flag for sol in unit_data_solutions(model, anchor)):
        warnings.warn(
            "model is not generic for degenerate data: some predicted "
            "valuations may not be realized",
            stacklevel=2,
        )
    return [
        TropicalPoint(z=tuple(w[j] - w[anchor] if j in J else Fraction(0) for j in range(model.n)), J=J)
        for J in admissible_supports(model.n, anchor, model.d)
    ]


def _check_length(model: SquaredLinearModel, w):
    if len(w) != model.n:
        raise ValidationError(f"valuation vector must have n = {model.n} entries, got {len(w)}")


def estimate_valuations(
    model: SquaredLinearModel,
    trop: TropicalData,
    eps_grid=DEFAULT_EPS_GRID,
) -> list:
    """Estimate critical-point valuations by tracking solutions in eps.

    For each region, the critical point of s(eps) = (eps^w_1, ..., eps^w_n)
    is solved with warm starts down the decreasing eps grid, as the data
    eps^(w - w_anchor), which have the same critical points; all regions are
    solved in one batch per eps, each started from its previous point. The
    first region to fail, in canonical order, raises PathLost. The slope of
    log|y_j| against log eps (least squares over the whole grid, which
    suppresses next-order series terms) estimates the valuation of each
    coordinate; slopes are rounded to the only values the theory allows,
    namely 0 or w_j - w_anchor. One float array, w - w_anchor, gives the
    data, the depth check and these targets; the rounded point is exact.
    The largest pre-rounding deviation is reported as the residual. ``x_track`` keeps the solver's own x at each eps, the
    points a figure draws as the region's arc.
    """
    import numpy as np

    from .mle import CriticalPoint, _solve_batch, to_floats

    _check_length(model, trop.w)
    eps_grid = to_floats(eps_grid, "eps_grid")
    if eps_grid.ndim != 1 or len(eps_grid) < 3:
        raise ValidationError("need a flat sequence of at least three eps values for a slope fit")
    eps_grid = eps_grid.tolist()
    # Valuations are limits as eps -> 0, with the anchor's eps^0 the largest
    # datum, so eps stays in (0, 1]; NaN fails that test too.
    if not all(0 < e <= 1 for e in eps_grid) or any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValidationError("eps grid must be finite, in (0, 1] and strictly decreasing")
    w, anchor = to_floats(trop.w, "w"), trop.anchor
    with np.errstate(over="ignore"):  # a spread beyond double range is inf, which the depth check rejects
        shifted = w - w[anchor]
    spread = float(shifted.max())
    if eps_grid[-1] ** spread < 1e-14:
        raise ValidationError(
            "grid too deep for double precision: the smallest coordinate "
            f"would reach {eps_grid[-1] ** spread:.1e}; raise the last eps or "
            "shrink the valuation range"
        )
    regions = enumerate_regions(model.arr)

    tracks = [[] for _ in regions]  # anchor-scaled y per eps, for the fit
    x_tracks = [[] for _ in regions]
    starts = None
    for eps in eps_grid:
        (points,) = _solve_batch(model, [eps**shifted], regions, tol=1e-10, starts=starts)
        for region, point, track, x_track in zip(regions, points, tracks, x_tracks):
            if not isinstance(point, CriticalPoint):
                raise PathLost(f"tracking lost region {region.sign} at eps = {eps:g}: {point}") from point
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scaled = point.y / point.y[anchor]
            if not np.all(np.isfinite(scaled)):
                raise PathLost(f"lost region {region.sign} at eps = {eps:g}: anchor value {point.y[anchor]:g}")
            track.append(scaled)
            x_track.append(tuple(point.x.tolist()))
        starts = [[point.x for point in points]]

    # One slope fit: each (region, coordinate) pair is a column of the right-hand side.
    ys = np.array(tracks)  # (region, eps, coordinate)
    R, G, n = ys.shape
    logs = np.log(np.abs(ys)).transpose(1, 0, 2).reshape(G, R * n)
    fitted = np.polyfit(np.log(np.array(eps_grid)), logs, 1)[0].reshape(R, n).tolist()
    allowed = [v - trop.w[anchor] for v in trop.w]
    targets = shifted.tolist()
    estimates = []
    for region, x_track, slopes in zip(regions, x_tracks, fitted):
        slopes[anchor] = 0.0
        # The nearer of 0 and w_j - w_anchor; a tie rounds to 0.
        nearer = [abs(v - t) < abs(v) for v, t in zip(slopes, targets)]
        z = tuple(t if near else Fraction(0) for t, near in zip(allowed, nearer))
        estimates.append(
            ValuationEstimate(
                region=region,
                slopes=tuple(slopes),
                point=TropicalPoint(z=z, J=tuple(j for j, v in enumerate(z) if v != 0)),
                residual=max(0.0, *(abs(v - t if near else v) for v, t, near in zip(slopes, targets, nearer))),
                x_track=tuple(x_track),
            )
        )
    return estimates
