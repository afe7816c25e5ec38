"""Test oracle: polytope faces from exact affine ranks.

These are the rules that :mod:`sqlinear.geometry` used before it read
vertices and facets off the extreme rays of one data cone, and faces off the
vertex-facet incidences alone. Log-normal vertices come from one nullspace
per (n-d)-subset of columns, hull facets from one nullspace per subset of
points. Every face is found by closing the facet sets under intersection,
and each face's dimension, each log-normal facet and each hull vertex is
decided by an exact affine rank. tests/test_polytope_oracle.py checks that
both give the same polytopes. ``signature`` and ``is_simple`` read a
polytope's combinatorial type off its vertex-facet incidences, which
``facet_vertices`` derives from V_rep and H_rep.

It also keeps the rules that the polytope layer's helpers followed before
they ran in integers: ``simplicial_start`` (rays from one Fraction inverse)
and ``swap_candidates`` (every one of the 2^(n-1) sign vectors per swap).
``interior_samples`` (Fraction line steps from a region's witness) gives the
interior points at which the tests check that a region's polytope type and
its critical point do not depend on the point chosen.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import ratlin_oracle
from sqlinear import ratlin
from sqlinear.arrangement import SignVector
from sqlinear.errors import NumericError
from sqlinear.geometry import Polytope, SwapCandidate, _check_kernel_point, _data_rows


class EmptyPolytope(NumericError):
    """Vertex enumeration produced no vertices (should not happen for valid input)."""


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    diffs = [ratlin.sub(p, base) for p in points[1:]]
    return ratlin.rank(diffs)


def _face_lattice(facet_sets):
    """All proper nonempty faces as vertex sets, closed under intersection."""
    faces = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        face = frontier.pop()
        for facet in facet_sets:
            meet = face & facet
            if meet and meet != face and meet not in faces:
                faces.add(meet)
                frontier.append(meet)
    return faces


def _f_vector(vertices, facet_sets, dim):
    faces = _face_lattice(facet_sets)
    counts = [0] * dim
    for face in faces:
        fdim = _affine_rank([vertices[i] for i in sorted(face)])
        if fdim < dim:
            counts[fdim] += 1
    return tuple(counts)


def lognormal_polytope(model, y) -> Polytope:
    y = _check_kernel_point(model, y)
    n, d = model.n, model.d
    B = model.B.B
    btilde = [tuple(Fraction(1) for _ in range(n))]
    for row in B:
        btilde.append(tuple(v / yi for v, yi in zip(row, y)))
    btilde_cols = ratlin.transpose(btilde)
    wmat_cols = ratlin.transpose(_data_rows(model, y))

    rays = set()
    for subset in itertools.combinations(range(n), n - d):
        cols = [btilde_cols[c] for c in subset]
        kernel = ratlin.nullspace(cols, ncols=n - d + 1)
        if len(kernel) != 1:
            continue
        ray = kernel[0]
        values = ratlin.matvec(btilde_cols, ray)
        if all(v >= 0 for v in values):
            rays.add(ratlin.primitive(ray))
        elif all(v <= 0 for v in values):
            rays.add(ratlin.primitive(ratlin.scale(ray, Fraction(-1))))
    if not rays:
        raise EmptyPolytope("no ray of the data cone survives the sign test")

    vertices = set()
    for ray in sorted(rays):
        s = ratlin.matvec(wmat_cols, ray)
        total = sum(s)
        if total == 0:
            continue
        vertices.add(tuple(v / total for v in s))
    vertices = sorted(vertices)
    dim = _affine_rank(vertices)

    h_rep = []
    incidence = []
    for i in range(n):
        on_i = frozenset(k for k, v in enumerate(vertices) if v[i] == 0)
        if on_i and _affine_rank([vertices[k] for k in sorted(on_i)]) == dim - 1:
            normal = tuple(Fraction(int(j == i)) for j in range(n))
            h_rep.append((normal, Fraction(0)))
            incidence.append(on_i)
    f_vec = _f_vector(vertices, incidence, dim)
    return Polytope(
        ambient_dim=n,
        dim=dim,
        V_rep=tuple(vertices),
        H_rep=tuple(h_rep),
        f_vector=f_vec,
    )


def polytope_from_points(points, ambient_dim=None) -> Polytope:
    points = [tuple(ratlin.as_fraction(v) for v in p) for p in points]
    if ambient_dim is None:
        ambient_dim = len(points[0])
    dim = _affine_rank(points)
    base = points[0]
    if dim < ambient_dim:
        # Work in coordinates on the affine hull.
        diffs = [ratlin.sub(p, base) for p in points[1:]]
        echelon, pivots = ratlin_oracle.rref(diffs)
        frame = [echelon[r] for r in range(dim)]
        gram = [[ratlin.dot(u, v) for v in frame] for u in frame]
        coords = []
        for p in points:
            rhs = [ratlin.dot(ratlin.sub(p, base), u) for u in frame]
            coords.append(ratlin.solve(gram, rhs))
        work = coords
    else:
        work = points

    facet_sets = {}
    for subset in itertools.combinations(range(len(work)), dim):
        chosen = [work[k] for k in subset]
        if _affine_rank(chosen) != dim - 1:
            continue
        rows = [ratlin.sub(p, chosen[0]) for p in chosen[1:]]
        kernel = ratlin.nullspace(rows, ncols=dim)
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        offset = ratlin.dot(normal, chosen[0])
        values = [ratlin.dot(normal, p) - offset for p in work]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            normal = ratlin.scale(normal, Fraction(-1))
            offset = -offset
            values = [-v for v in values]
        else:
            continue
        members = frozenset(k for k, v in enumerate(values) if v == 0)
        facet_sets[members] = (normal, offset)

    incidence = sorted(facet_sets, key=sorted)
    f_vec = _f_vector(work, incidence, dim)
    vertex_set = set()
    faces = _face_lattice(set(incidence))
    for face in faces:
        if _affine_rank([work[k] for k in sorted(face)]) == 0:
            vertex_set.update(face)
    h_rep = tuple(facet_sets[m] for m in incidence)
    return Polytope(
        ambient_dim=ambient_dim,
        dim=dim,
        V_rep=tuple(points[k] for k in sorted(vertex_set)),
        H_rep=h_rep,
        f_vector=f_vec,
    )


def dual_polytope(model, y) -> Polytope:
    y = _check_kernel_point(model, y)
    cols = ratlin.transpose(model.B.B)
    points = [ratlin.scale(cols[i], 1 / y[i]) for i in range(model.n)]
    return polytope_from_points(points, ambient_dim=model.n - model.d)


def facet_vertices(poly):
    """Per facet (normal, offset) of ``poly``, the frozenset of the indices of
    the vertices v on it, normal . v == offset exactly."""
    return [
        frozenset(k for k, v in enumerate(poly.V_rep) if ratlin.dot(normal, v) == offset)
        for normal, offset in poly.H_rep
    ]


def vertex_facet_degrees(poly):
    """Sorted multiset: how many facets each vertex of ``poly`` lies on."""
    facets = facet_vertices(poly)
    return tuple(sorted(sum(k in facet for facet in facets) for k in range(len(poly.V_rep))))


def signature(poly):
    """Combinatorial-type fingerprint (f-vector, vertex-facet degrees): what
    :func:`sqlinear.geometry.combinatorial_type_scan` reports per region."""
    return poly.f_vector, vertex_facet_degrees(poly)


def is_simple(poly) -> bool:
    """Every vertex lies on exactly ``dim`` facets."""
    return all(deg == poly.dim for deg in vertex_facet_degrees(poly))


def simplicial_start(rows, d):
    """The first d independent Fraction rows, picked by Fraction ranks, and
    the primitive columns of their Fraction inverse; None when the rank is < d."""
    chosen = ratlin_oracle.independent_rows(rows, d)
    if chosen is None:
        return None
    columns = ratlin.transpose(ratlin_oracle.inverse([rows[i] for i in chosen]))
    return chosen, [ratlin.content_free(ratlin.cleared(col)[0]) for col in columns]


def interior_samples(arr, region, count, rng):
    """Steps from the witness halfway to the first wall, in Fractions."""
    samples = []
    witness = region.witness
    signs = region.sign.signs
    attempts = 0
    while len(samples) < count and attempts < 50 * count:
        attempts += 1
        direction = tuple(Fraction(rng.randint(-9, 9)) for _ in range(arr.d))
        if ratlin.is_zero(direction):
            continue
        bound = None
        for i, row in enumerate(arr.A):
            move = signs[i] * ratlin.dot(row, direction)
            if move < 0:
                slack = signs[i] * ratlin.dot(row, witness)
                t = -slack / move
                bound = t if bound is None else min(bound, t)
        step = Fraction(1) if bound is None else bound / 2
        point = tuple(w + step * v for w, v in zip(witness, direction))
        values = arr.form_values(point)
        if any(v == 0 for v in values):
            continue
        if tuple(1 if signs[i] * values[i] > 0 else -1 for i in range(arr.n)) == tuple([1] * arr.n):
            samples.append(point)
    return samples


def swap_candidates(model, y):
    """Every swap (i < j) with every sign vector sigma (sigma_0 = 1) whose
    image lies in ker B with a sign vector other than y's."""
    y = _check_kernel_point(model, y)
    base_sign = SignVector.from_values(y)
    out = []
    for i, j in itertools.combinations(range(model.n), 2):
        swapped = list(y)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for bits in itertools.product((1, -1), repeat=model.n - 1):
            sigma = (1,) + bits
            image = tuple(s * v for s, v in zip(sigma, swapped))
            if not ratlin.is_zero(ratlin.matvec(model.B.B, image)):
                continue
            if SignVector.from_values(image).signs == base_sign.signs:
                continue
            out.append(SwapCandidate(i=i, j=j, sigma=sigma, image=image))
    return out
