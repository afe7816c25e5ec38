"""Log-normal polytopes, their polar-dual combinatorics, and log-Voronoi scans.

For a model point with square-root coordinates y (no zeros, B y = 0), the
data vectors for which y is critical form the log-normal polytope: the part
of the probability simplex inside the row span of [y^2; B diag(y)]. Its
combinatorics is polar-dual to the convex hull of the columns of
B diag(y)^(-1), and stays constant while y moves inside a region of the
chamber arrangement (the original hyperplanes plus one determinantal
hyperplane per column subset of size n-d+1).

All polytopes here are desk-scale. Exact arithmetic runs only where
vertices and facets are found, and both come from one set of extreme rays:
those of the data cone {z : z^T [1; B diag(y)^(-1)] >= 0}, cut out row by row
with the integer double-description step of region enumeration. A ray maps
to a vertex of the log-normal polytope and, by polarity, is a facet of the
hull of the columns of B diag(y)^(-1). Every other face, with its dimension,
is read off the vertex-facet incidences alone by walking down from the
facets, so no rank is taken per face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import ratlin
from .arrangement import (
    Arrangement,
    SignVector,
    _cone_rays,
    _ray,
    _simplicial_start,
    enumerate_regions,
    interior_samples,
)
from .errors import (
    DegenerateMinor,
    NoConvergence,
    RankDeficient,
    ValidationError,
    ZeroCoordinate,
)
from .model import SquaredLinearModel

# Largest kernel residual, relative to max(1, max|y_i|), that a float model
# point may carry before it is projected exactly onto ker(B).
KERNEL_SLACK = 1e-9
# Exact points per chamber region at which the type scan evaluates the
# polytope: the witness plus interior samples drawn from random.Random(0).
TYPE_SCAN_SAMPLES = 3
# Width in the segment parameter down to which a Voronoi tag switch is bisected.
REFINE_TOL = 1e-4


@dataclass(frozen=True)
class Polytope:
    """Paired V/H description with the face-count vector.

    ``H_rep`` holds (normal, offset) pairs meaning normal . x >= offset;
    ``incidence[k]`` is the frozenset of vertex indices on facet k.
    ``f_vector[i]`` counts faces of dimension i for i = 0 .. dim-1.
    """

    ambient_dim: int
    dim: int
    V_rep: tuple
    H_rep: tuple
    f_vector: tuple
    incidence: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.V_rep)

    def vertex_facet_degrees(self):
        """Sorted multiset: how many facets each vertex lies on."""
        degrees = [0] * len(self.V_rep)
        for facet in self.incidence:
            for v in facet:
                degrees[v] += 1
        return tuple(sorted(degrees))

    def signature(self):
        """Combinatorial-type fingerprint: (f-vector, facet-degree multiset)."""
        return (self.f_vector, self.vertex_facet_degrees())

    def is_simple(self) -> bool:
        codim = self.dim
        return all(deg == codim for deg in self.vertex_facet_degrees())


@dataclass(frozen=True)
class ChamberHyperplane:
    subset: tuple
    normal: tuple


@dataclass(frozen=True)
class ChamberArrangement:
    arrangement: Arrangement
    originals: tuple
    extras: tuple  # ChamberHyperplane records before deduplication
    duplicates: tuple  # groups of labels that collapsed to one hyperplane


@dataclass(frozen=True)
class SwapCandidate:
    i: int
    j: int
    sigma: tuple
    image: tuple


@dataclass(frozen=True)
class VoronoiProfile:
    parameters: tuple
    tags: tuple
    crossings: tuple  # (t_refined, tag_before, tag_after)


def _face_layers(facet_sets, dim):
    """Proper nonempty faces as vertex sets, one layer per dimension.

    Layer dim-1 holds the facets, and the faces one dimension below a face H
    are the inclusion-maximal nonempty sets H & f over the facets f not
    containing H (Kaibel & Pfetsch 2002, "Computing the face lattice of a
    polytope from its vertex-facet incidences"). A point has no layers.
    """
    layers = [set(facet_sets)]
    while len(layers) < dim:
        below = set()
        for face in layers[0]:
            meets = {face & facet for facet in facet_sets} - {face, frozenset()}
            below.update(m for m in meets if not any(m < other for other in meets))
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


def _data_cone_rays(model: SquaredLinearModel, y):
    """Extreme rays of the data cone {z : z^T [1; B diag(y)^(-1)] >= 0}.

    Row i of the cone is (1, q_i) for the column point q_i = B_{:,i} / y_i,
    and ``y`` must already be checked. The cone is pointed, because
    [1; B diag(y)^(-1)] has full row rank (the ones row is not in the row
    span of B diag(y)^(-1), as B y = 0), and z = (1, 0, ..., 0) is interior.
    Returns (rays, rows): the (primitive integer ray, bitmask of the rows
    vanishing on it) pairs, and the rows as primitive integer vectors, each a
    positive multiple row[0] of (1, q_i).
    """
    rows = [_ray(ratlin.cleared((Fraction(1),) + tuple(v / yi for v in col))[0])
            for col, yi in zip(ratlin.transpose(model.B.B), y)]
    dim = model.n - model.d + 1
    chosen, base = _simplicial_start(rows, dim)
    return _cone_rays((1,) * model.n, chosen, base, rows, dim), rows


def lognormal_polytope(model: SquaredLinearModel, y) -> Polytope:
    """Data polytope of the model point with square roots y.

    Realized through the data cone of :func:`_data_cone_rays`: an extreme ray
    z maps to data space by s = z^T [y^2; B Y], and the vertex is s over its
    coordinate sum. Since sum_i y_i^2 (1, q_i) = (sum(y^2), 0), that sum is
    z_0 sum(y^2), positive because z_0 > 0 on every nonzero point of the
    cone; so every ray gives a vertex and the polytope is never empty.
    The polytope has dimension n-d: it holds s* = y^2 / sum(y^2) > 0, and the
    rows [y^2; B Y] are independent. Its facets are the inclusion-maximal
    nonempty zero sets {vertices with s_i = 0}, listed by i (two coordinates
    with one zero set give the facet twice); none holds every vertex, as
    s* > 0. The other faces follow from these vertex-facet incidences.
    """
    y = _check_kernel_point(model, y)
    n, d = model.n, model.d
    rays, rows = _data_cone_rays(model, y)
    weights = [v * v / row[0] for v, row in zip(y, rows)]
    total = sum(v * v for v in y)
    vertices = sorted({
        tuple(w * sum(map(mul, row, ray)) / (ray[0] * total) for w, row in zip(weights, rows))
        for ray, _ in rays
    })
    dim = n - d
    zero_sets = [frozenset(k for k, v in enumerate(vertices) if v[i] == 0) for i in range(n)]
    facets = [i for i, z in enumerate(zero_sets) if z and not any(z < other for other in zero_sets)]
    incidence = tuple(zero_sets[i] for i in facets)
    return Polytope(
        ambient_dim=n,
        dim=dim,
        V_rep=tuple(vertices),
        H_rep=tuple((tuple(Fraction(int(j == i)) for j in range(n)), Fraction(0)) for i in facets),
        f_vector=tuple(len(layer) for layer in _face_layers(incidence, dim)),
        incidence=incidence,
    )


def dual_polytope(model: SquaredLinearModel, y) -> Polytope:
    """Convex hull Q of the column points q_i = B_{:,i} / y_i.

    Q is (n-d)-dimensional with the origin inside, as sum_i y_i^2 q_i = B y
    = 0. By polarity its facets are the extreme rays (z_0, z) of the data
    cone of :func:`_data_cone_rays`: a ray is the facet z . q >= -z_0, on the
    points whose row vanishes on it. The normal is scaled to z / |z_f| for
    the last nonzero entry z_f, and the offset to -z_0 / |z_f|. Facets are
    listed by their sorted point sets, and the vertices are the points on
    the zero-dimensional faces. The reversed f-vector of Q equals the
    f-vector of the log-normal polytope at the same point, and for y off the
    chamber arrangement Q is simplicial.
    """
    y = _check_kernel_point(model, y)
    n, dim = model.n, model.n - model.d
    rays, _ = _data_cone_rays(model, y)
    cols = ratlin.transpose(model.B.B)
    points = [ratlin.scale(cols[i], 1 / y[i]) for i in range(n)]
    facets = {}
    for (z0, *z), mask in rays:
        last = abs(next(v for v in reversed(z) if v))
        normal = tuple(Fraction(v, last) for v in z)
        facets[frozenset(i for i in range(n) if mask >> i & 1)] = (normal, Fraction(-z0, last))
    incidence = sorted(facets, key=sorted)
    layers = _face_layers(incidence, dim)
    return Polytope(
        ambient_dim=dim,
        dim=dim,
        V_rep=tuple(points[k] for k in sorted(set().union(*layers[0]))),
        H_rep=tuple(facets[m] for m in incidence),
        f_vector=tuple(len(layer) for layer in layers),
        incidence=tuple(incidence),
    )


def chamber_forms(model: SquaredLinearModel):
    """The determinantal linear forms (in x) indexed by (n-d+1)-subsets."""
    arr = model.arr
    n, d = arr.n, arr.d
    Bcols = ratlin.transpose(model.B.B)
    extras = []
    for subset in itertools.combinations(range(n), n - d + 1):
        normal = [Fraction(0)] * d
        for t, j in enumerate(subset):
            rest = [Bcols[k] for k in subset if k != j]
            minor = ratlin.det(ratlin.transpose(rest)) if rest else Fraction(1)
            sign = -1 if t % 2 else 1
            coeff = sign * minor
            if coeff != 0:
                for c in range(d):
                    normal[c] += coeff * arr.A[j][c]
        if all(v == 0 for v in normal):
            raise DegenerateMinor(
                f"chamber determinant for subset {subset} vanishes identically"
            )
        extras.append(ChamberHyperplane(subset=subset, normal=tuple(normal)))
    return extras


def chamber_arrangement(model: SquaredLinearModel) -> ChamberArrangement:
    """Original hyperplanes plus the chamber walls, deduplicated with a report."""
    arr = model.arr
    extras = chamber_forms(model)
    rows = []
    labels = []
    seen = {}
    duplicates = {}
    for i, row in enumerate(arr.A):
        prim = ratlin.primitive(row)
        seen[prim] = arr.label(i)
        rows.append(tuple(Fraction(v) for v in prim))
        labels.append(arr.label(i))
    for extra in extras:
        prim = ratlin.primitive(extra.normal)
        label = "ch{" + ",".join(str(j + 1) for j in extra.subset) + "}"
        if prim in seen:
            duplicates.setdefault(seen[prim], []).append(label)
            continue
        seen[prim] = label
        rows.append(tuple(Fraction(v) for v in prim))
        labels.append(label)
    deduped = Arrangement(A=tuple(rows), labels=tuple(labels))
    dup_report = tuple(
        (kept, tuple(dropped)) for kept, dropped in sorted(duplicates.items())
    )
    return ChamberArrangement(
        arrangement=deduped,
        originals=arr.A,
        extras=tuple(extras),
        duplicates=dup_report,
    )


def swap_candidates(model: SquaredLinearModel, y) -> list:
    """Coordinate swaps-with-signs taking y to another kernel point.

    A candidate certifies that the swapped-and-signed vector squares into
    the model; only sign vectors different from y's are reported, since
    those are the ones that can bound the log-Voronoi cell linearly.
    """
    y = _check_kernel_point(model, y)
    n = model.n
    B = model.B.B
    base_sign = SignVector.from_values(y)
    out = []
    for i, j in itertools.combinations(range(n), 2):
        swapped = list(y)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for bits in itertools.product((1, -1), repeat=n - 1):
            sigma = (1,) + bits
            image = tuple(s * v for s, v in zip(sigma, swapped))
            if not ratlin.is_zero(ratlin.matvec(B, image)):
                continue
            if SignVector.from_values(image).signs == base_sign.signs:
                continue
            out.append(SwapCandidate(i=i, j=j, sigma=sigma, image=image))
    return out


def combinatorial_type_scan(model: SquaredLinearModel):
    """Signature of the log-normal polytope across chamber regions.

    For every region of the chamber arrangement, the polytope is evaluated
    at ``TYPE_SCAN_SAMPLES`` exact points (the witness and seeded interior
    samples); the signature must not change inside a region. Returns
    {region sign string: signature}.
    """
    import random

    if model.d not in (2, 3):
        raise RankDeficient("chamber-region scan is desk-scale: d must be 2 or 3")
    chamber = chamber_arrangement(model)
    regions = enumerate_regions(chamber.arrangement)
    rng = random.Random(0)
    report = {}
    for region in regions:
        points = [region.witness]
        points.extend(
            interior_samples(chamber.arrangement, region, TYPE_SCAN_SAMPLES - 1, rng)
        )
        signatures = set()
        for x in points:
            yvec = model.arr.form_values(x)
            signatures.add(lognormal_polytope(model, yvec).signature())
        if len(signatures) != 1:
            raise AssertionError(
                f"signature not constant on chamber region {region.key()}"
            )
        report[region.key()] = signatures.pop()
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
    parameter. Every region at every sample is solved in one Newton batch;
    each bisection round solves the midpoints of all open brackets in one
    more, each region started from its critical point at the bracket's
    lower end. ``tol`` is the solver tolerance of every solve; a parameter
    at which no region converges raises NoConvergence carrying every
    region's failure there. Log-Voronoi boundaries are generally not
    algebraic, so sampling plus bisection is the honest tool here.
    """
    from .mle import CriticalPoint, _check_positive_data, _solve_batch, to_floats

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
    R = len(regions)

    def solve(params, starts=None):
        """Every region's outcome at each parameter, from one batch."""
        data = [_check_positive_data(a + t * (b - a), model.n) for t in params]
        outcomes = _solve_batch(model, data, regions, tol, starts)
        return [outcomes[k * R : (k + 1) * R] for k in range(len(params))]

    def tag(row) -> str:
        points = [p for p in row if isinstance(p, CriticalPoint)]
        if not points:
            raise NoConvergence("no region converged", trace=[], failures=list(zip(regions, row)))
        return str(max(points, key=lambda p: p.logL).region)

    params = [k / steps for k in range(steps + 1)]
    rows = solve(params)
    tags = [tag(row) for row in rows]
    # [lo, hi, outcomes at lo, tag at lo, tag at hi] per tag switch; all
    # brackets still wider than REFINE_TOL are bisected in one batch.
    switches = [k for k in range(steps) if tags[k] != tags[k + 1]]
    brackets = [[params[k], params[k + 1], rows[k], tags[k], tags[k + 1]] for k in switches]
    while active := [br for br in brackets if br[1] - br[0] > REFINE_TOL]:
        mids = [(br[0] + br[1]) / 2 for br in active]
        starts = [p.x if isinstance(p, CriticalPoint) else None for br in active for p in br[2]]
        for br, mid, row in zip(active, mids, solve(mids, starts)):
            if tag(row) == br[3]:
                br[0], br[2] = mid, row
            else:
                br[1] = mid
    crossings = [((lo + hi) / 2, before, after) for lo, hi, _, before, after in brackets]
    return VoronoiProfile(
        parameters=tuple(params), tags=tuple(tags), crossings=tuple(crossings)
    )


def _data_rows(model: SquaredLinearModel, y):
    """Rows [y^2; B diag(y)] whose span holds the data with critical point y."""
    return [tuple(v * v for v in y)] + [
        tuple(v * yi for v, yi in zip(row, y)) for row in model.B.B
    ]


def _in_row_span(model: SquaredLinearModel, y, s) -> bool:
    rows = _data_rows(model, y)
    return ratlin.rank(rows + [tuple(s)]) == ratlin.rank(rows)
