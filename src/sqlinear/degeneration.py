"""Degenerate critical points and tropical maximum likelihood.

At a unit data vector e_i every region's critical point degenerates onto a
coordinate subspace: the vanishing coordinates J range over the subsets of
size < d avoiding i, and on each such support the point is cut out by the
kernel constraints in closed form. Tropically, data valuations w with a
strict minimum at i map to critical-point valuations z = sum_{j in J}
(w_j - w_i) e_j. Both facts are checked numerically by tracking each
region's solution along a data curve s(eps) = (eps^w_1, ..., eps^w_n)
and fitting the decay slopes.

The module splits at the float boundary. The closed forms
(:func:`unit_data_solutions`, :func:`tropical_predictions`) are exact
rational arithmetic and load no numpy; :func:`estimate_valuations` and
:func:`limit_distance` import numpy and :mod:`.mle` when called.
"""

from __future__ import annotations

import itertools
import math
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
    coordinate; B y = 0 holds exactly and y_j = 0 exactly on J.
    """

    __slots__ = ("J", "y", "anchor", "generic_flag", "error")

    def __init__(self, J: tuple, y: tuple, anchor: int, generic_flag: bool, error: str | None = None):
        super().__init__(J, y, anchor, generic_flag, error)


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
    __slots__ = ("region", "slopes", "point", "residual", "y_track")  # y_track: anchor-normalized y per eps, largest first

    @property
    def y_limit(self) -> tuple:
        return self.y_track[-1]


def admissible_supports(n: int, anchor: int, d: int):
    """Subsets J of [n] - {anchor} with |J| <= d-1, largest first, lex within."""
    others = [j for j in range(n) if j != anchor]
    return [J for size in range(d - 1, -1, -1) for J in itertools.combinations(others, size)]


def unit_data_solutions(model: SquaredLinearModel, anchor: int) -> list:
    """All degenerate critical points for data s = e_anchor, exactly.

    For each admissible support J, with K the coordinates outside J and the
    anchor, the Gram system (B_K B_K^T) u = b_anchor is solved exactly and
    y_K = -B_K^T u, y_anchor = 1, so B y = 0. B's rows are cleared to
    integers first: scaling them by a diagonal D turns u into D^-1 u and
    leaves y exactly as it is. ``generic_flag`` is False on an
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
    B = [ratlin.cleared(row)[0] for row in model.B.B]
    solutions = []
    for J in admissible_supports(n, anchor, d):
        keep = [k for k in range(n) if k != anchor and k not in J]
        gram = [[sum(r[k] * c[k] for k in keep) for c in B] for r in B]
        u = ratlin.solve(gram, [r[anchor] for r in B])
        if u is None:
            solutions.append(
                DegenerateSolution(J=J, y=(), anchor=anchor, generic_flag=False, error="singular Gram matrix")
            )
            continue
        y = [Fraction(0)] * n
        y[anchor] = Fraction(1)
        for k in keep:
            y[k] = -sum(c * r[k] for c, r in zip(u, B))
        prim = ratlin.primitive(y)
        if prim[anchor] < 0:
            prim = tuple(-v for v in prim)
        solutions.append(
            DegenerateSolution(J=J, y=prim, anchor=anchor, generic_flag=all(y[k] != 0 for k in keep))
        )
    # Collisions between supports break genericity for all involved entries.
    counts = Counter(sol.y for sol in solutions if sol.y)
    return [
        DegenerateSolution(sol.J, sol.y, sol.anchor, False, "support collision") if counts[sol.y] > 1 else sol
        for sol in solutions
    ]


def tropical_predictions(
    model: SquaredLinearModel, trop: TropicalData, check_generic: bool = True
) -> list:
    """The mu predicted valuation vectors z = sum_{j in J} (w_j - w_anchor) e_j.

    The formula is proved for generic kernel pairs only; when the closed-form
    degenerations collide, a warning is attached and the caller should trust
    only supports whose ``generic_flag`` holds.
    """
    _check_length(model, trop.w)
    w, anchor = trop.w, trop.anchor
    if check_generic and not model_is_generic(model, anchor):
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


def model_is_generic(model: SquaredLinearModel, anchor: int = 0) -> bool:
    return all(sol.generic_flag for sol in unit_data_solutions(model, anchor))


def estimate_valuations(
    model: SquaredLinearModel,
    trop: TropicalData,
    eps_grid=DEFAULT_EPS_GRID,
) -> list:
    """Estimate critical-point valuations by tracking solutions in eps.

    For each region, the critical point of s(eps) = (eps^w_1, ..., eps^w_n)
    is solved with warm starts down the decreasing eps grid; all regions are
    solved in one batch per eps, each started from its previous point. The
    first region to fail, in canonical order, raises PathLost. The slope of
    log|y_j| against log eps (least squares over the whole grid, which
    suppresses next-order series terms) estimates the valuation of each
    coordinate; slopes are rounded to the only values the theory allows,
    namely 0 or w_j - w_anchor, and the largest pre-rounding deviation is
    reported as the residual.
    """
    import numpy as np

    from .mle import CriticalPoint, _solve_batch, to_floats

    _check_length(model, trop.w)
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(eps_grid) < 3:
        raise ValidationError("need at least three eps values for a slope fit")
    # NaN fails the first test too: every comparison with it is false.
    if not all(0 < e < math.inf for e in eps_grid) or any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValidationError("eps grid must be finite, positive and strictly decreasing")
    w = to_floats(trop.w, "w")
    anchor = trop.anchor
    spread = float(w.max()) - float(w[anchor])  # inf when out of range; the check below rejects it
    if eps_grid[-1] ** spread < 1e-14:
        raise ValidationError(
            "grid too deep for double precision: the smallest coordinate "
            f"would reach {eps_grid[-1] ** spread:.1e}; raise the last eps or "
            "shrink the valuation range"
        )
    regions = enumerate_regions(model.arr)

    tracks = [[] for _ in regions]
    starts = None
    for eps in eps_grid:
        (points,) = _solve_batch(model, [eps**w], regions, tol=1e-10, starts=starts)
        for region, point, track in zip(regions, points, tracks):
            if not isinstance(point, CriticalPoint):
                raise PathLost(f"tracking lost region {region.sign} at eps = {eps:g}: {point}") from point
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scaled = point.y / point.y[anchor]
            if not np.all(np.isfinite(scaled)):
                raise PathLost(f"lost region {region.sign} at eps = {eps:g}: anchor value {point.y[anchor]:g}")
            track.append(scaled)
        starts = [[point.x for point in points]]

    # One slope fit: each (region, coordinate) pair is a column of the right-hand side.
    ys = np.array(tracks)  # (region, eps, coordinate)
    R, G, n = ys.shape
    logs = np.log(np.abs(ys)).transpose(1, 0, 2).reshape(G, R * n)
    fitted = np.polyfit(np.log(np.array(eps_grid)), logs, 1)[0].reshape(R, n).tolist()
    allowed = [v - trop.w[anchor] for v in trop.w]
    estimates = []
    for region, track, slopes in zip(regions, ys.tolist(), fitted):
        slopes[anchor] = 0.0
        # The nearer of 0 and w_j - w_anchor; a tie rounds to 0.
        z = tuple(t if abs(v - float(t)) < abs(v) else Fraction(0) for v, t in zip(slopes, allowed))
        estimates.append(
            ValuationEstimate(
                region=region,
                slopes=tuple(slopes),
                point=TropicalPoint(z=z, J=tuple(j for j, v in enumerate(z) if v != 0)),
                residual=max(0.0, *(abs(v - float(t)) for v, t in zip(slopes, z))),
                y_track=tuple(map(tuple, track)),
            )
        )
    return estimates


def match_supports(estimates, solutions) -> dict:
    """Map each tracked region to the degenerate solution with its support.

    Returns {region sign string -> DegenerateSolution}; raises PathLost if a
    tracked support has no closed-form counterpart (non-bijective matching).
    """
    by_support = {tuple(sol.J): sol for sol in solutions}
    matched = {}
    used = set()
    for est in estimates:
        key = est.point.J
        if key not in by_support or key in used:
            raise PathLost(f"tracked support {key} is not matched bijectively")
        used.add(key)
        matched[str(est.region.sign)] = by_support[key]
    return matched


def limit_distance(estimate: ValuationEstimate, solution: DegenerateSolution) -> float:
    """Distance between the tracked limit and the closed-form point,
    both scaled to anchor coordinate one."""
    import numpy as np

    from .mle import to_floats

    y_exact = to_floats(solution.y, "y")
    y_exact = y_exact / y_exact[solution.anchor]
    y_num = np.array(estimate.y_limit)
    return float(np.max(np.abs(y_exact - y_num)))
