"""Log-normal polytopes, their polar-dual combinatorics, and log-Voronoi scans.

For a model point with square-root coordinates y (no zeros, B y = 0), the
data vectors for which y is critical form the log-normal polytope: the part
of the probability simplex inside the row span of [y^2; B diag(y)]. Its
combinatorics is polar-dual to the convex hull of the columns of
B diag(y)^(-1), and stays constant while y moves inside a region of the
chamber arrangement (the original hyperplanes plus one determinantal
hyperplane per column subset of size n-d+1).

All polytopes here are desk-scale, and their combinatorics runs in ints.
Vertices and facets come from the extreme rays of the data cone
{z : z^T [1; B diag(y)^(-1)] >= 0}, cut out row by row with the integer
double-description step of region enumeration, each with a bitmask of the
rows vanishing on it. A ray maps to a vertex of the log-normal polytope P
and, by polarity, is a facet of the hull Q of the columns of B diag(y)^(-1).
Every other face comes from one walk over int bitmasks down from P's at most
n facets; Q's face lattice is P's reversed, and no rank is taken per face.
As the combinatorics is constant on each chamber region, the type scan reads
it once per region, at the region's ray, for any d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from . import ratlin
from .arrangement import (
    Arrangement,
    Record,
    SignVector,
    _cone_rays,
    _ray,
    _simplicial_start,
    enumerate_regions,
)
from .errors import DegenerateMinor, ValidationError, ZeroCoordinate
from .model import SquaredLinearModel

# Largest kernel residual, relative to max(1, max|y_i|), that a float model
# point may carry before it is projected exactly onto ker(B).
KERNEL_SLACK = 1e-9
# Width in the segment parameter down to which a Voronoi tag switch is
# bisected; the refinement reaches it in rounds of several levels each.
REFINE_TOL = 1e-4


class Polytope(Record):
    """Paired V/H description with the face-count vector.

    ``H_rep`` holds (normal, offset) pairs meaning normal . x >= offset; a
    vertex v lies on the facet exactly when normal . v == offset.
    ``f_vector[i]`` counts faces of dimension i for i = 0 .. dim-1.
    """

    __slots__ = ("ambient_dim", "dim", "V_rep", "H_rep", "f_vector")


class ChamberHyperplane(Record):
    __slots__ = ("subset", "normal")


class ChamberArrangement(Record):
    __slots__ = ("arrangement", "duplicates")  # duplicates: groups of labels that collapsed to one hyperplane


class SwapCandidate(Record):
    __slots__ = ("i", "j", "sigma", "image")


class VoronoiProfile(Record):
    __slots__ = ("parameters", "tags", "crossings")  # crossings: (t_refined, tag_before, tag_after)


def _face_layers(facets, dim):
    """Proper nonempty faces as int bitmasks of vertices, one layer per dimension.

    Layer dim-1 holds the facets, and the faces one dimension below a face H
    are the inclusion-maximal nonempty meets H & f over the facets f not
    containing H (Kaibel & Pfetsch 2002, "Computing the face lattice of a
    polytope from its vertex-facet incidences"). A point has no layers.
    """
    layers = [set(facets)]
    while len(layers) < dim:
        below = set()
        for face in layers[0]:
            kept = []  # the maximal meets; a strict superset has more bits, so it comes first
            for meet in sorted({face & facet for facet in facets} - {face, 0}, key=int.bit_count, reverse=True):
                if not any(meet & o == meet for o in kept):
                    kept.append(meet)
            below.update(kept)
        layers.insert(0, below)
    return layers[:dim]


def _check_kernel_point(model: SquaredLinearModel, y):
    """Validate y in ker(B) with no zero coordinate, exactly.

    Floating input (e.g. from a numeric solve) is rationalized and then
    projected exactly onto the kernel, provided its residual is below
    ``KERNEL_SLACK``; the polytope combinatorics is locally constant, so the tiny
    exact move is harmless and keeps a single exact code path.
    """
    y = tuple(ratlin.as_fraction(v) for v in y)
    if len(y) != model.n:
        raise ValidationError(f"y must have length n = {model.n}")
    B = model.B.B
    residual = ratlin.matvec(B, y)
    if not ratlin.is_zero(residual):
        scale = max(1, *(abs(v) for v in y))
        if max(abs(v) for v in residual) > Fraction(KERNEL_SLACK) * scale:
            raise ValidationError("y is not in the kernel of B")
        gram = ratlin.matmul(B, ratlin.transpose(B))
        u = ratlin.solve(gram, residual)
        y = ratlin.sub(y, ratlin.matvec(ratlin.transpose(B), u))
    if any(v == 0 for v in y):
        raise ZeroCoordinate("model point has a zero coordinate")
    return y


def _data_cone(B, y, f_vectors=None):
    """Extreme rays of the data cone {z : z^T [1; B diag(y)^(-1)] >= 0}, and P's faces.

    Row i is (1, q_i), q_i = B_{:,i} / y_i, as the primitive integers of
    (|y_i|, sign(y_i) B_{:,i}); y is any positive multiple of a model point
    with no zero coordinate, as every caller ensures. The cone is pointed
    ([1; B diag(y)^(-1)] has full row rank, as B y = 0) with (1, 0, ..., 0)
    inside. Returns the (primitive ray, bitmask of its zero rows) pairs, the
    rows, {i: bitmask of the rays on row i} for P's facet rows i, and P's
    f-vector; ray k is P's vertex k. The f-vector depends on the facet masks
    alone, and is kept in ``f_vectors`` (if given) under their tuple.
    """
    dim = len(B)
    rows = [_ray(ratlin.cleared([abs(v), *(c if v > 0 else -c for c in col)])[0]) for col, v in zip(zip(*B), y)]
    rays = _cone_rays((1,) * len(y), *_simplicial_start(rows, dim + 1), rows, dim + 1)
    zero = [sum(1 << k for k, (_, mask) in enumerate(rays) if mask >> i & 1) for i in range(len(y))]
    facets = {i: z for i, z in enumerate(zero) if z and not any(z & o == z != o for o in zero)}
    masks, f_vectors = tuple(facets.values()), {} if f_vectors is None else f_vectors
    if masks not in f_vectors:
        f_vectors[masks] = tuple(len(layer) for layer in _face_layers(masks, dim))
    return rays, rows, facets, f_vectors[masks]


def lognormal_polytope(model: SquaredLinearModel, y) -> Polytope:
    """Data polytope of the model point with square roots y.

    Realized through the data cone of :func:`_data_cone`: an extreme ray z
    maps to data space by s = z^T [y^2; B Y], and the vertex is s over its
    coordinate sum z_0 sum(y^2) (as sum_i y_i^2 (1, q_i) = (sum(y^2), 0)),
    positive because z_0 > 0 on the cone minus 0: the polytope is never empty.
    It has dimension n-d: it holds s* = y^2 / sum(y^2) > 0, and the rows
    [y^2; B Y] are independent. Its facets are the inclusion-maximal nonempty
    zero sets {vertices with s_i = 0}, listed by i (two coordinates with one
    zero set give the facet twice); none holds every vertex, as s* > 0.
    """
    y = _check_kernel_point(model, y)
    n = model.n
    rays, rows, facets, f_vector = _data_cone(model.B.B, y)
    total = sum(v * v for v in y)
    weights = [v * v / (row[0] * total) for v, row in zip(y, rows)]
    vertices = [tuple(w * sum(map(mul, row, ray)) / ray[0] for w, row in zip(weights, rows)) for ray, _ in rays]
    return Polytope(
        ambient_dim=n,
        dim=n - model.d,
        V_rep=tuple(sorted(vertices)),
        H_rep=tuple((tuple(Fraction(int(j == i)) for j in range(n)), Fraction(0)) for i in facets),
        f_vector=f_vector,
    )


def dual_polytope(model: SquaredLinearModel, y) -> Polytope:
    """Convex hull Q of the column points q_i = B_{:,i} / y_i.

    Q is (n-d)-dimensional with the origin inside, as sum_i y_i^2 q_i = B y
    = 0. By polarity its facets are the extreme rays (z_0, z) of the data
    cone of :func:`_data_cone`: a ray is the facet z . q >= -z_0, on the
    points whose row vanishes on it. The normal is scaled to z / |z_f| for
    the last nonzero entry z_f, and the offset to -z_0 / |z_f|. Facets are
    listed by their sorted point sets. Q's face lattice is the log-normal
    polytope's reversed: its f-vector is P's reversed and its vertices are
    the q_i on P's facet rows. For y off the chamber arrangement Q is simplicial.
    """
    y = _check_kernel_point(model, y)
    rays, _, vertices, f_vector = _data_cone(model.B.B, y)
    cols = ratlin.transpose(model.B.B)
    facets = {}
    for (z0, *z), mask in rays:
        last = abs(next(v for v in reversed(z) if v))
        normal = tuple(Fraction(v, last) for v in z)
        facets[frozenset(i for i in range(model.n) if mask >> i & 1)] = (normal, Fraction(-z0, last))
    return Polytope(
        ambient_dim=model.n - model.d,
        dim=model.n - model.d,
        V_rep=tuple(ratlin.scale(cols[i], 1 / y[i]) for i in vertices),
        H_rep=tuple(facets[m] for m in sorted(facets, key=sorted)),
        f_vector=f_vector[::-1],
    )


def chamber_forms(model: SquaredLinearModel):
    """The determinantal linear forms (in x), one per (n-d+1)-subset S.

    The form of S is sum_{j in S} c_j l_j for the c spanning the kernel of
    B_S, the columns of B in S: the cofactor expansion of the determinant,
    up to scale. It vanishes identically exactly when B_S has rank below
    n - d, which is when that kernel is not one-dimensional.
    """
    arr = model.arr
    extras = []
    for subset in itertools.combinations(range(arr.n), arr.n - arr.d + 1):
        kernel = ratlin.nullspace([[row[j] for j in subset] for row in model.B.B], len(subset))
        if len(kernel) != 1:
            raise DegenerateMinor(f"chamber determinant for subset {subset} vanishes identically")
        normal = tuple(sum(c * arr.A[j][k] for c, j in zip(kernel[0], subset)) for k in range(arr.d))
        extras.append(ChamberHyperplane(subset=subset, normal=normal))
    return extras


def chamber_arrangement(model: SquaredLinearModel) -> ChamberArrangement:
    """Original hyperplanes plus the chamber walls, deduplicated with a report.

    Each primitive form keeps the first label it comes with, original rows
    first; every later label of the same form, a parallel input row's too,
    is reported as dropped under it.
    """
    arr = model.arr
    pairs = [(arr.label(i), row) for i, row in enumerate(arr.A)] + [
        ("ch{" + ",".join(str(j + 1) for j in extra.subset) + "}", extra.normal) for extra in chamber_forms(model)
    ]
    kept, duplicates = {}, {}
    for label, form in pairs:
        prim = ratlin.primitive(form)
        if prim in kept:
            duplicates.setdefault(kept[prim], []).append(label)
        else:
            kept[prim] = label
    return ChamberArrangement(
        Arrangement(A=tuple(kept), labels=tuple(kept.values())),
        tuple((label, tuple(dropped)) for label, dropped in sorted(duplicates.items())),
    )


def swap_candidates(model: SquaredLinearModel, y) -> list:
    """Coordinate swaps-with-signs taking y to another kernel point.

    A candidate certifies that the swapped-and-signed vector squares into
    the model; only sign vectors different from y's are reported, since
    those are the ones that can bound the log-Voronoi cell linearly. An image
    lies in ker B iff it is A x', and x' is fixed by its values on d independent
    rows (row 0 among them, sigma_0 = 1): 2^(d-1) exact solves per swap
    (i < j). Sigmas come sorted, + before -.
    """
    y = _check_kernel_point(model, y)
    A, n, d = model.arr.A, model.n, model.d
    chosen = ratlin.independent_rows(A, d)
    # l(x') = (G / g) rhs for the values rhs of x' on the chosen rows, in units of y's lcd.
    flat, g = ratlin.cleared([v for row in ratlin.matmul(A, ratlin.inverse([A[i] for i in chosen])) for v in row])
    G = [flat[k : k + d] for k in range(0, len(flat), d)]
    Y, _ = ratlin.cleared(y)
    base_sign = SignVector.from_values(y).signs
    out = []
    for i, j in itertools.combinations(range(n), 2):
        perm = [j if k == i else i if k == j else k for k in range(n)]
        swapped, target = [y[k] for k in perm], [Y[k] for k in perm]
        found = []
        for signs in itertools.product((1, -1), repeat=d - 1):
            rhs = [s * target[k] for s, k in zip((1, *signs), chosen)]
            values = [sum(map(mul, row, rhs)) for row in G]
            if all(abs(v) == g * abs(w) for v, w in zip(values, target)):
                found.append(tuple(1 if v * w > 0 else -1 for v, w in zip(values, target)))
        for sigma in sorted(found, key=lambda sigma: [-s for s in sigma]):
            image = tuple(s * v for s, v in zip(sigma, swapped))
            if SignVector.from_values(image).signs != base_sign:
                out.append(SwapCandidate(i=i, j=j, sigma=sigma, image=image))
    return out


def combinatorial_type_scan(model: SquaredLinearModel):
    """Signature of the log-normal polytope on every chamber region.

    The polytope's combinatorics is constant on each region of the chamber
    arrangement, so it is read once per region, at the region's ray x.
    Returns {region sign string: signature}, read off the ray masks of
    :func:`_data_cone` at y = A x (A scaled to integers). The signature
    is the pair (f-vector, sorted multiset of how many facets each vertex
    lies on); ``signature`` in ``tests/polytope_oracle.py`` reads the same
    pair off a full :class:`Polytope`. Different signatures mean
    different combinatorial types, but equal ones need not: the type is the
    vertex-facet incidence up to relabelling (Ziegler, *Lectures on
    Polytopes*, 1995), which the scan does not bring to a canonical form.
    Off the chamber walls each q_i on Q's boundary is a vertex, so a
    vertex's degree is the size of its ray's mask. The face lattice is
    walked once per facet pattern.
    """
    flat, _ = ratlin.cleared([v for row in model.arr.A for v in row])
    A = [flat[k : k + model.d] for k in range(0, len(flat), model.d)]
    report, f_vectors = {}, {}
    for region in enumerate_regions(chamber_arrangement(model).arrangement):
        rays, _, _, f_vector = _data_cone(model.B.B, [sum(map(mul, row, region.ray)) for row in A], f_vectors)
        report[str(region.sign)] = (f_vector, tuple(sorted(mask.bit_count() for _, mask in rays)))
    return report


def log_voronoi_scan(
    model: SquaredLinearModel,
    y,
    start,
    end,
    steps: int = 20,
    tol: float = 1e-10,
) -> VoronoiProfile:
    """Which region owns the MLE along a data segment inside the polytope.

    The segment from ``start`` to ``end`` (both strictly positive points of
    the log-normal polytope of y) is sampled at steps+1 parameters; at each
    data point the global maximizer's region tag is recorded, and each tag
    switch is localized by bisection down to ``REFINE_TOL`` in the segment
    parameter. Every region at every sample is solved in one Newton batch.
    Each bisection round solves in one more the midpoints of the next L
    levels of every open bracket, each region started from its critical
    point at the bracket's lower end, and each bracket bisects down through
    them, tagging only the points on its path. L is the most levels whose
    points fit in steps+1 data vectors, and at most the levels still needed.
    Each midpoint is its interval's (lo + hi) / 2, as one level at a time
    computes it. ``tol`` is the solver tolerance of every solve; a parameter
    on a path at which no region converges raises NoConvergence carrying
    every region's failure there. Log-Voronoi boundaries are generally not
    algebraic, so sampling plus bisection is the honest tool here.
    """
    from .mle import CriticalPoint, SolveAllResult, _solve_batch, to_floats

    if steps < 1:
        raise ValidationError(f"steps must be at least 1, got {steps}")
    y = _check_kernel_point(model, y)
    start = tuple(ratlin.as_fraction(v) for v in start)
    end = tuple(ratlin.as_fraction(v) for v in end)
    for point, name in ((start, "start"), (end, "end")):
        if len(point) != model.n:
            raise ValidationError(f"{name} point must have n = {model.n} entries, got {len(point)}")
        if any(v <= 0 for v in point):
            raise ValidationError(f"{name} point must be strictly positive")
        if not _in_row_span(model, y, point):
            raise ValidationError(f"{name} point is outside the log-normal span")
    a, b = to_floats(start, "start"), to_floats(end, "end")
    regions = enumerate_regions(model.arr)

    def solve(params, starts=None):
        """Every region's outcome at each parameter, from one batch."""
        return _solve_batch(model, [a + t * (b - a) for t in params], regions, tol, starts)

    def tag(row) -> str:
        return str(SolveAllResult.of(regions, row).mle.region)

    params = [k / steps for k in range(steps + 1)]
    rows = solve(params)
    tags = [tag(row) for row in rows]
    # [lo, hi, outcomes at lo, tag at lo, tag at hi] per tag switch.
    switches = [k for k in range(steps) if tags[k] != tags[k + 1]]
    brackets = [[params[k], params[k + 1], rows[k], tags[k], tags[k + 1]] for k in switches]
    while active := [br for br in brackets if br[1] - br[0] > REFINE_TOL]:
        fit = ((steps + 1) // len(active) + 1).bit_length() - 1
        levels = min(fit, max(math.ceil(math.log2((br[1] - br[0]) / REFINE_TOL)) for br in active))
        trees, size = [_midpoints(br[0], br[1], levels) for br in active], 2**levels - 1
        starts = [[p.x if isinstance(p, CriticalPoint) else None for p in br[2]] for br in active]
        solved = solve([t for tree in trees for t in tree], [x for x in starts for _ in range(size)])
        for i, (br, tree) in enumerate(zip(active, trees)):
            outcomes = solved[i * size : (i + 1) * size]
            lo, hi = -1, size  # the tree indices of the bracket's ends
            while hi - lo > 1 and br[1] - br[0] > REFINE_TOL:
                mid = (lo + hi) // 2
                if tag(outcomes[mid]) == br[3]:
                    lo, br[0], br[2] = mid, tree[mid], outcomes[mid]
                else:
                    hi, br[1] = mid, tree[mid]
    crossings = [((lo + hi) / 2, before, after) for lo, hi, _, before, after in brackets]
    return VoronoiProfile(
        parameters=tuple(params), tags=tuple(tags), crossings=tuple(crossings)
    )


def _midpoints(lo, hi, levels):
    """The 2^levels - 1 points that ``levels`` bisection levels of [lo, hi]
    can visit, in order, each the (lo + hi) / 2 of its interval."""
    points = [lo, hi]
    for _ in range(levels):
        points = [v for lo, hi in zip(points, points[1:]) for v in (lo, (lo + hi) / 2)] + [points[-1]]
    return points[1:-1]


def _data_rows(model: SquaredLinearModel, y):
    """Rows [y^2; B diag(y)] whose span holds the data with critical point y."""
    return [tuple(v * v for v in y)] + [
        tuple(v * yi for v, yi in zip(row, y)) for row in model.B.B
    ]


def _in_row_span(model: SquaredLinearModel, y, s) -> bool:
    """Whether s lies in the span of the rows [y^2; B diag(y)], which are
    independent for a kernel point y with no zero coordinate: y^2 = c B diag(y)
    would make y = B^T c, which B y = 0 forces to zero."""
    rows = _data_rows(model, y)
    return ratlin.rank(rows + [tuple(s)]) == len(rows)
