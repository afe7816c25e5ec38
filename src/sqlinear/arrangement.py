"""Exact combinatorics of central hyperplane arrangements.

An arrangement is an n x d rational matrix A whose rows are the coefficient
vectors of linear forms l_1, ..., l_n. Everything in this module is computed
in exact rational (or integer) arithmetic: kernel complements,
characteristic polynomials, and region enumeration with interior witness
points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from . import ratlin
from .errors import ParallelRows, RankDeficient


@dataclass(frozen=True)
class Arrangement:
    """Central arrangement given by rows of exact rational coefficients."""

    A: tuple
    labels: tuple | None = None

    def __post_init__(self):
        rows = ratlin.frac_matrix(self.A)
        object.__setattr__(self, "A", rows)
        if not rows or not rows[0]:
            raise RankDeficient("arrangement needs at least one row and one column")
        for i, row in enumerate(rows):
            if ratlin.is_zero(row):
                raise RankDeficient(f"row {i} of the coefficient matrix is zero")
        if self.labels is not None:
            labels = tuple(str(v) for v in self.labels)
            if len(labels) != len(rows):
                raise RankDeficient("labels must match the number of rows")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def d(self) -> int:
        return len(self.A[0])

    def rank(self) -> int:
        return ratlin.rank(self.A)

    def is_essential(self) -> bool:
        return self.rank() == self.d

    def form_values(self, x):
        """Values (l_1(x), ..., l_n(x)); exact when x is rational."""
        return tuple(ratlin.dot(row, x) for row in self.A)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"l{i + 1}"


@dataclass(frozen=True)
class KernelComplement:
    """(n-d) x n matrix B with B A = 0 and full row rank."""

    B: tuple


@dataclass(frozen=True)
class SignVector:
    """Element of {+1,-1}^n modulo global negation, first entry fixed to +1."""

    signs: tuple

    @staticmethod
    def canonical(signs):
        signs = tuple(int(s) for s in signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("sign vectors must have entries +-1")
        if signs and signs[0] < 0:
            signs = tuple(-s for s in signs)
        return SignVector(signs)

    @staticmethod
    def from_values(values):
        """Canonical sign vector of a list of nonzero numbers."""
        if any(v == 0 for v in values):
            raise ValueError("cannot take the sign vector of a zero value")
        return SignVector.canonical(tuple(1 if v > 0 else -1 for v in values))

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @staticmethod
    def parse(text: str) -> "SignVector":
        return SignVector.canonical(tuple(1 if ch == "+" else -1 for ch in text))


@dataclass(frozen=True)
class Region:
    """Region of the projective arrangement complement with a rational witness.

    The witness satisfies sign(l_i(witness)) == sign_i exactly and is scaled
    so that its largest absolute coordinate equals 1.
    """

    sign: SignVector
    witness: tuple

    def key(self) -> str:
        return str(self.sign)


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """chi(t) with integer coefficients, stored leading coefficient first."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        value = 0
        for c in self.coeffs:
            value = value * t + c
        return value

    def ml_degree(self) -> int:
        """|chi(-1)| / 2 for an essential arrangement, see :func:`ml_degree`.

        The coefficient of t^(d - r) is nonzero exactly for r up to the rank
        of the arrangement, so the index of the last nonzero one is the rank.
        """
        d = self.degree
        rank = max(r for r, c in enumerate(self.coeffs) if c)
        if rank != d:
            raise RankDeficient(f"operation needs rank(A) = d = {d}, got rank {rank}")
        value = abs(self(-1))
        if value % 2 != 0:
            raise RankDeficient("chi(-1) odd; arrangement cannot be central and essential")
        return value // 2


def _require_essential(arr: Arrangement):
    if not arr.is_essential():
        raise RankDeficient(
            f"operation needs rank(A) = d = {arr.d}, got rank {arr.rank()}"
        )


def _parallel_pairs(arr: Arrangement):
    prims = [ratlin.primitive(row) for row in arr.A]
    seen = {}
    pairs = []
    for i, p in enumerate(prims):
        if p in seen:
            pairs.append((seen[p], i))
        else:
            seen[p] = i
    return pairs


def kernel_complement(arr: Arrangement) -> KernelComplement:
    """Deterministic B with B A = 0, rank n - d.

    B is read off the reduced row echelon form of A^T, with rows scaled to
    primitive integer vectors whose first nonzero entry is positive. That
    normalization reproduces the usual textbook bases, e.g. (1, 1, 1, -1)
    for the four-line Steiner arrangement.
    """
    _require_essential(arr)
    basis = ratlin.nullspace(ratlin.transpose(arr.A), ncols=arr.n)
    rows = tuple(tuple(Fraction(v) for v in ratlin.primitive(vec)) for vec in basis)
    return KernelComplement(B=rows)


def characteristic_polynomial(arr: Arrangement) -> CharacteristicPolynomial:
    """chi(t) = sum over subsets S of (-1)^|S| t^(d - rank S) (Whitney).

    Subsets are walked depth-first on one integer echelon form of the
    included rows, so each subset costs one row reduction. When row i lies in
    the span of the rows already included, including it or leaving it out
    gives the same rank in every extension, so the two branches' terms cancel
    one for one and the walk drops the node. The leaves that survive are the
    no-broken-circuit sets (Bjorner 1982; Orlik & Terao 1992, ch. 3), and the
    nodes at depth j are the no-broken-circuit sets of the first j rows.
    Adding a row never removes a region, so the walk does at most
    n |chi(-1)| echelon inserts.
    """
    n = arr.n
    rows = [ratlin.primitive(row) for row in arr.A]
    acc = [0] * (arr.d + 1)
    echelon = ratlin.IntEchelon()
    # (depth i, sign, rank): a node's included rows are the first ``rank``
    # rows of the echelon when it is popped, so truncating restores them.
    stack = [(0, 1, 0)]
    while stack:
        i, sign, rank = stack.pop()
        echelon.truncate(rank)
        if i == n:
            acc[rank] += sign
        elif echelon.insert(rows[i]):
            stack += ((i + 1, sign, rank), (i + 1, -sign, rank + 1))
    # acc[r] is the coefficient of t^(d - r): descending order already.
    return CharacteristicPolynomial(coeffs=tuple(acc))


def ml_degree(arr: Arrangement) -> int:
    """|chi(-1)| / 2: the number of projective regions, hence of critical points."""
    return characteristic_polynomial(arr).ml_degree()


def generic_ml_degree(d: int, n: int) -> int:
    """Critical-point count for n generic hyperplanes in d unknowns.

    Computed twice: as sum_{i<d} C(n-1, i) and as the z^(d-1) coefficient of
    1 / ((1-z)^(n-d) (1-2z)); the two must agree.
    """
    if not n > d > 1:
        raise RankDeficient(f"need n > d > 1, got (d, n) = ({d}, {n})")
    binomial_sum = sum(comb(n - 1, i) for i in range(d))
    coeff = sum(comb(d - 1 - b + n - d - 1, n - d - 1) * 2**b for b in range(d)) if n > d else 0
    if binomial_sum != coeff:
        raise AssertionError(
            f"binomial sum {binomial_sum} disagrees with generating function {coeff}"
        )
    return binomial_sum


def _ray(ints):
    """Integer vector divided by the gcd of its entries (direction kept)."""
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _split(rays, row, bit, d):
    """One double-description step: the extreme rays of both halves of a cone.

    ``rays`` are the (vector, zero mask) pairs of a pointed cone's extreme
    rays, the mask holding the bits of the inserted rows that vanish on the
    ray. Returns {1: rays of cone & {row >= 0}, -1: rays of cone & {row <= 0}},
    with None for a half that no ray enters strictly: its open part is empty.
    Rays on the hyperplane gain ``bit``; each adjacent pair across it adds
    the ray where their 2-face meets it. Two rays are adjacent when their
    common zero set has at least d - 2 rows and no third ray vanishes on all
    of them (Fukuda & Prodon 1996). Region enumeration keeps both halves;
    :mod:`.geometry` keeps only the positive one, cutting the data cone of a
    log-normal polytope out row by row.
    """
    pos, neg, both = [], [], []
    for ray, mask in rays:
        value = sum(map(mul, row, ray))
        if value > 0:
            pos.append((value, ray, mask))
        elif value < 0:
            neg.append((value, ray, mask))
        else:
            both.append((ray, mask | bit))
    for vp, p, mp in pos:
        for vn, q, mq in neg:
            common = mp & mq
            if common.bit_count() >= d - 2 and sum(m & common == common for _, m in rays) == 2:
                both.append((_ray([vp * b - vn * a for a, b in zip(p, q)]), common | bit))
    return {
        1: [(ray, mask) for _, ray, mask in pos] + both if pos else None,
        -1: [(ray, mask) for _, ray, mask in neg] + both if neg else None,
    }


def _simplicial_start(rows, d):
    """The first d independent integer rows (greedy, as indices) and their cone's rays.

    The simplicial cone {M_j x >= 0} of d independent rows M has the extreme
    rays (M^-1)_{:,j}, returned as primitive integer vectors; ray j vanishes
    on every chosen row but the j-th. They are read off one integer
    Gauss-Jordan pass of [M | I]: row r ends as c_r (e_r | (M^-1)_{r,:}).
    """
    chosen = ratlin.IntEchelon.independent_rows(rows, d)
    m, _, _ = ratlin._gauss_jordan([[*rows[i], *(int(i == j) for j in chosen)] for i in chosen], d)
    top = lcm(*(row[r] for r, row in enumerate(m)))
    return chosen, [_ray([row[d + j] * (top // row[r]) for r, row in enumerate(m)]) for j in range(d)]


def _orthant_rays(signs, chosen, base):
    """Rays of the simplicial cone {s_i A_i x >= 0 : i in chosen}, s = ``signs``."""
    full = sum(1 << i for i in chosen)
    return [(tuple(signs[i] * v for v in ray), full & ~(1 << i)) for i, ray in zip(chosen, base)]


def _cone_rays(signs, chosen, base, ints, d):
    """Extreme rays of the closed cone {s_i A_i x >= 0 : i < len(signs)}.

    ``base`` holds the rays of the simplicial cone of the ``chosen`` rows with
    positive signs (see :func:`_simplicial_start`); the other rows are cut in
    one by one.
    """
    rays = _orthant_rays(signs, chosen, base)
    for i in range(len(signs)):
        if i not in chosen:
            rays = _split(rays, ints[i], 1 << i, d)[signs[i]]
    return rays


def enumerate_regions(arr: Arrangement) -> list:
    """All regions of the projective complement, as canonical sign vectors.

    Every cone carries its extreme rays (primitive integer vectors with a
    bitmask of the rows vanishing on them). Enumeration starts from the
    2^(d-1) orthants of the d independent rows of :func:`_simplicial_start`,
    with row 0 positive, whose rays are the signed columns of one inverse.
    Every other row is then inserted in index order by the double-description
    step of :func:`_split`, keeping each half that some ray enters strictly.
    No LP runs. A region's witness is the sum of its extreme rays, each first
    scaled to largest absolute coordinate 1: a positive combination of all
    extreme rays of a pointed cone lies in its interior, so the witness has
    the region's signs exactly (Fukuda & Prodon 1996). Scaling the rays first
    stops rays with huge integer entries from swamping the others, which put
    plain sums numerically on a wall. Regions come back sorted by sign
    string; the count always equals ``ml_degree(arr)``.
    """
    _require_essential(arr)
    pairs = _parallel_pairs(arr)
    if pairs:
        raise ParallelRows(pairs)
    n, d = arr.n, arr.d
    ints = [_ray(ratlin.cleared(row)[0]) for row in arr.A]
    chosen, base = _simplicial_start(ints, d)
    regions = []
    for orthant in itertools.product((1, -1), repeat=d - 1):
        signs = [0] * n
        for i, s in zip(chosen, (1, *orthant)):
            signs[i] = s
        regions.append((tuple(signs), _orthant_rays(signs, chosen, base)))
    for h in range(n):
        if h in chosen:
            continue
        grown = []
        for signs, rays in regions:
            for side, half in _split(rays, ints[h], 1 << h, d).items():
                if half is not None:
                    grown.append((signs[:h] + (side,) + signs[h + 1 :], half))
        regions = grown
    result = []
    for signs, rays in regions:
        # sum_j ray_j / top_j, over the common denominator of the tops.
        tops = [max(map(abs, ray)) for ray, _ in rays]
        common = lcm(*tops)
        total = [0] * d
        for (ray, _), top in zip(rays, tops):
            total = [a + common // top * v for a, v in zip(total, ray)]
        top = max(map(abs, total))
        result.append(Region(sign=SignVector(signs), witness=tuple(Fraction(v, top) for v in total)))
    result.sort(key=Region.key)
    return result


def interior_samples(arr: Arrangement, region: Region, count: int, rng) -> list:
    """Extra exact interior points of a region, for start-independence tests
    and per-region sampling. Steps from the witness stop halfway to the first
    hyperplane crossing, so every sample keeps the region's sign vector.

    The line steps run in integers: with the witness W / D and s_i a_i the
    signed integer rows, the crossing along a direction u is at
    t_i = (s_i a_i . W) / (D * -(s_i a_i . u)), and the sample is
    (2 den W + num u) / (2 D den) for the smallest t = num / (D den).
    """
    samples = []
    W, D = ratlin.cleared(region.witness)
    rows = [[s * v for v in ratlin.cleared(row)[0]] for s, row in zip(region.sign.signs, arr.A)]
    slacks = [sum(map(mul, row, W)) for row in rows]
    attempts = 0
    while len(samples) < count and attempts < 50 * count:
        attempts += 1
        direction = [rng.randint(-9, 9) for _ in range(arr.d)]
        if not any(direction):
            continue
        num, den = D, 0  # first crossing t = num / (D den); den = 0: no wall ahead
        for row, slack in zip(rows, slacks):
            move = -sum(map(mul, row, direction))
            if move > 0 and (not den or slack * den < num * move):
                num, den = slack, move
        # Step t / 2 toward the first wall, or t = 1 = D / (D * 1) with none ahead.
        den = 2 * den if den else 1
        point = [den * w + num * u for w, u in zip(W, direction)]
        if all(sum(map(mul, row, point)) > 0 for row in rows):
            samples.append(tuple(Fraction(v, den * D) for v in point))
    return samples
