"""Exact combinatorics of central hyperplane arrangements.

An arrangement is an n x d rational matrix A whose rows are the coefficient
vectors of linear forms l_1, ..., l_n. Everything in this module is computed
in exact rational (or integer) arithmetic: kernel complements,
characteristic polynomials, and region enumeration with interior witness
points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul

from . import ratlin
from .errors import ParallelRows, RankDeficient


class Record:
    """Base of the package's small immutable records. Importing
    ``dataclasses`` loads ``inspect`` and ``ast``, several milliseconds of
    every CLI call, so the records do without it.

    A subclass names its fields once, in ``__slots__``. Records are built by
    position or keyword, compare equal only within one class, hash as the
    tuple of their fields, print as ``Name(field=value, ...)``, pickle and
    copy through their constructor, and refuse assignment. A subclass with
    defaults or checks writes an ``__init__`` that ends in this one.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The slot descriptors' setters skip the refusing __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        get = attrgetter(*cls.__slots__)
        cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}, each once")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Arrangement(Record):
    """Central arrangement given by rows of exact rational coefficients."""

    __slots__ = ("A", "labels")

    def __init__(self, A, labels=None):
        rows = ratlin.frac_matrix(A)
        if not rows or not rows[0]:
            raise RankDeficient("arrangement needs at least one row and one column")
        for i, row in enumerate(rows):
            if ratlin.is_zero(row):
                raise RankDeficient(f"row {i} of the coefficient matrix is zero")
        if labels is not None:
            labels = tuple(str(v) for v in labels)
            if len(labels) != len(rows):
                raise RankDeficient("labels must match the number of rows")
        super().__init__(rows, labels)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def d(self) -> int:
        return len(self.A[0])

    def rank(self) -> int:
        return ratlin.rank(self.A)

    def form_values(self, x):
        """Values (l_1(x), ..., l_n(x)); exact when x is rational."""
        return tuple(ratlin.dot(row, x) for row in self.A)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"l{i + 1}"


class KernelComplement(Record):
    """(n-d) x n matrix B with B A = 0 and full row rank."""

    __slots__ = ("B",)


class SignVector(Record):
    """Element of {+1,-1}^n modulo global negation, first entry fixed to +1."""

    __slots__ = ("signs",)

    # Enumeration builds one per region, and Record's generic __init__ takes twice as long.
    def __init__(self, signs: tuple):
        object.__setattr__(self, "signs", signs)

    @staticmethod
    def from_values(values):
        """Canonical sign vector of a list of nonzero numbers: the first entry is +1."""
        if any(v == 0 for v in values):
            raise ValueError("cannot take the sign vector of a zero value")
        lead = 1 if values[0] > 0 else -1
        return SignVector(tuple(lead if v > 0 else -lead for v in values))

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


class Region(Record):
    """Region of the projective arrangement complement with an interior ray.

    ``ray`` is a primitive integer vector with sign(l_i(ray)) == sign_i
    exactly; ``witness`` is it scaled to largest absolute coordinate 1.
    """

    __slots__ = ("sign", "ray")

    def __init__(self, sign: SignVector, ray: tuple):  # one per region too
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "ray", ray)

    @property
    def witness(self) -> tuple:
        top = max(map(abs, self.ray))
        return tuple(Fraction(v, top) for v in self.ray)


class CharacteristicPolynomial(Record):
    """chi(t) with integer coefficients, stored leading coefficient first."""

    __slots__ = ("coeffs",)

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
    if (rank := arr.rank()) != arr.d:
        raise RankDeficient(f"operation needs rank(A) = d = {arr.d}, got rank {rank}")


def kernel_complement(arr: Arrangement) -> KernelComplement:
    """Deterministic B with B A = 0, rank n - d.

    B is read off the reduced row echelon form of A^T, with rows scaled to
    primitive integer vectors whose first nonzero entry is positive. That
    normalization reproduces the usual textbook bases, e.g. (1, 1, 1, -1)
    for the four-line Steiner arrangement.
    """
    _require_essential(arr)
    basis = ratlin.nullspace(ratlin.transpose(arr.A), ncols=arr.n)
    return KernelComplement(B=tuple(ratlin.primitive(vec) for vec in basis))


def characteristic_polynomial(arr: Arrangement) -> CharacteristicPolynomial:
    """chi(t) = sum over subsets S of (-1)^|S| t^(d - rank S) (Whitney).

    Subsets are walked depth-first. Each node carries the integer echelon
    form of its included rows as a tuple of (lead column, row) pairs, shared
    with its descendants, so a node costs one fraction-free reduction of its
    next row and nothing is undone. A row's content is divided out once,
    when it joins. When row i lies in the span of the rows already included,
    including it or leaving it out gives the same rank in every extension,
    so the two branches' terms cancel one for one and the walk drops the
    node; a node of rank d spans every later row, so it is never pushed, and
    the last row's two branches go straight into the sum. The leaves that
    survive are the no-broken-circuit sets (Bjorner 1982; Orlik & Terao
    1992, ch. 3), and the nodes at depth j are the no-broken-circuit sets of
    the first j rows. Adding a row never removes a region, so the walk
    reduces at most n |chi(-1)| rows.
    """
    n, d = arr.n, arr.d
    rows = [ratlin.cleared(row)[0] for row in arr.A]
    acc = [0] * (d + 1)
    stack = [(0, 1, ())]
    while stack:
        i, sign, basis = stack.pop()
        row = rows[i]
        for lead, pivot in basis:
            c = row[lead]
            if c:
                a = pivot[lead]
                row = [a * x - c * y for x, y in zip(row, pivot)]
        first = next(filter(None, row), 0)
        if not first:
            continue
        rank = len(basis)
        if i == n - 1:
            acc[rank] += sign
            acc[rank + 1] -= sign
            continue
        stack.append((i + 1, sign, basis))
        if rank + 1 < d:
            g = gcd(*row)
            stack.append((i + 1, -sign, (*basis, (row.index(first), [v // g for v in row]))))
    # acc[r] is the coefficient of t^(d - r): descending order already.
    return CharacteristicPolynomial(coeffs=tuple(acc))


def ml_degree(arr: Arrangement) -> int:
    """|chi(-1)| / 2: the number of projective regions, hence of critical points."""
    return characteristic_polynomial(arr).ml_degree()


def _ray(ints):
    """Integer vector divided by the gcd of its entries (direction kept)."""
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _simplicial_start(rows, d):
    """The first d independent integer rows (greedy, as indices) and their cone's rays.

    The simplicial cone {M_j x >= 0} of d independent rows M has the extreme
    rays (M^-1)_{:,j}, returned as primitive integer vectors; ray j vanishes
    on every chosen row but the j-th. Both come from one integer
    Gauss-Jordan pass of [rows^T | I_d], reduced on its n = len(rows) left
    columns: the pivot columns are the greedy rows, and row j ends as
    c_j (e_j on the chosen columns | (M^-1)_{:,j}). None when the rows have
    rank < d.
    """
    n = len(rows)
    augmented = [[*col, *(int(i == j) for j in range(d))] for i, col in enumerate(zip(*rows))]
    m, chosen, _ = ratlin._gauss_jordan(augmented, n)
    if len(chosen) < d:
        return None
    return chosen, [_ray(row[n:] if row[c] > 0 else [-v for v in row[n:]]) for c, row in zip(chosen, m)]


def _cones(ints, d, chosen, base, signs=None):
    """Double description of the regions of the primitive integer rows ``ints``.

    All cones share one table of lines. A line is [v, mask, value]: a
    primitive integer vector, the bitmask of the inserted rows vanishing on
    it, and its value on the row being inserted. A cone is (bitmask of its
    negative rows, [(line, sign), ...]), the extreme ray being sign * v. The
    start cones are the orthants of the ``chosen`` rows, with rays the
    signed ``base`` vectors (see :func:`_simplicial_start`) and row
    ``chosen[0]`` positive. Each other row, in index order, is evaluated
    once per line and splits every cone into the halves that some ray enters
    strictly. A half keeps its rays strictly inside, then those on the row,
    then one new ray per adjacent pair across the row, where their 2-face
    meets it. Two rays are adjacent when their common zero set has at least
    d - 2 rows and no third ray of the cone vanishes on all of them (Fukuda
    & Prodon 1996). The new ray vanishes on that set and the row, of rank
    d - 1, so a line another cone made on this row is found by that mask and
    oriented by one nonzero coordinate; a line from an earlier row vanishes
    on more of the earlier rows. While every line is simple, with exactly
    d - 1 zero rows (so independent ones), the scan of the third rays is
    skipped: p, q across the row then share at most d - 2 zero rows (d - 1
    would make them one line), and if d - 2, those cut out a pointed 2-face
    whose only extreme rays are p and q. The start lines are simple, new
    lines stay so, and the first row vanishing on a line ends the rule once
    its own cones are split. With ``signs`` only the cone {s_i A_i x >= 0}
    is kept, and the table holds just its lines. Returns (lines, cones).
    """
    full = sum(1 << i for i in chosen)
    lines = [[ray, full & ~(1 << i), 0] for i, ray in zip(chosen, base)]
    orthants = [[signs[i] for i in chosen]] if signs else [(1, *o) for o in itertools.product((1, -1), repeat=d - 1)]
    cones = [(sum(1 << i for i, s in zip(chosen, o) if s < 0), list(zip(lines, o))) for o in orthants]
    simple = True
    for h, row in enumerate(ints):
        if full >> h & 1:
            continue
        bit, side, scan = 1 << h, signs[h] if signs else 0, not simple
        for line in lines:
            line[2] = value = sum(map(mul, row, line[0]))
            if not value:
                line[1] |= bit
                simple = False
        onrow = {}  # the lines made on this row, by mask, with a nonzero coordinate
        grown = []
        for neg, rays in cones:
            pos, negs, both = [], [], []
            for ray in rays:
                value = ray[0][2] * ray[1]
                (pos if value > 0 else negs if value else both).append(ray)
            masks = [line[1] for line, _ in rays] if scan and pos and negs else ()
            for p, sp in pos:
                for q, sq in negs:
                    common = p[1] & q[1]
                    if common.bit_count() >= d - 2 and (not scan or sum(m & common == common for m in masks) == 2):
                        # The new ray is sp sq r: value(p) q - value(q) p on the lines.
                        made = onrow.get(common | bit)
                        if made is None:
                            r = [p[2] * b - q[2] * a for a, b in zip(p[0], q[0])]
                            line = [_ray(r), common | bit, 0]
                            onrow[common | bit] = line, next(k for k, v in enumerate(r) if v)
                            lines.append(line)
                            both.append((line, sp * sq))
                        else:
                            line, k = made
                            up = (p[2] * q[0][k] > q[2] * p[0][k]) == (line[0][k] > 0)
                            both.append((line, sp * sq if up else -sp * sq))
            if pos and side >= 0:
                grown.append((neg, pos + both))
            if negs and side <= 0:
                grown.append((neg | bit, negs + both))
        cones = grown
        if signs:
            lines = [line for line, _ in cones[0][1]]
    return lines, cones


def _cone_rays(signs, chosen, base, ints, d):
    """(primitive vector, zero mask) of each extreme ray of the closed cone
    {s_i A_i x >= 0 : i < len(signs)}, in the order of :func:`_cones`."""
    _, [(_, rays)] = _cones(ints, d, chosen, base, signs)
    return [(line[0] if s > 0 else tuple(-v for v in line[0]), line[1]) for line, s in rays]


def enumerate_regions(arr: Arrangement) -> list:
    """All regions of the projective complement, as canonical sign vectors.

    The rows are cleared to primitive integers once. Their start rows (see
    :func:`_simplicial_start`) show whether the arrangement is essential,
    and the rows up to sign whether two are parallel. :func:`_cones` then
    splits the 2^(d-1) orthants of the start rows by every other row, all
    cones sharing one table of lines. No LP runs. A region's ray is the sum
    of its extreme rays, each first scaled to largest absolute coordinate 1,
    summed column by column over a common denominator and made primitive: a
    positive combination of all extreme rays of a pointed cone lies in its
    interior, so the ray has the region's signs exactly (Fukuda & Prodon
    1996). Scaling the rays first stops rays with huge integer entries from
    swamping the others, which put plain sums numerically on a wall. All of
    it is integer arithmetic; no Fraction is built. Regions come back sorted
    by sign string; the count always equals ``ml_degree(arr)``.
    """
    n, d = arr.n, arr.d
    ints = [_ray(ratlin.cleared(row)[0]) for row in arr.A]
    start = _simplicial_start(ints, d)
    if start is None:
        _require_essential(arr)  # raises: the rank is below d
    seen = {}
    keys = (row if next(filter(None, row)) > 0 else tuple(-v for v in row) for row in ints)
    pairs = [(seen[key], i) for i, key in enumerate(keys) if seen.setdefault(key, i) != i]
    if pairs:
        raise ParallelRows(pairs)
    lines, cones = _cones(ints, d, *start)
    sign_of = {"0": 1, "1": -1}.get
    for line in lines:
        line.append(max(map(abs, line[0])))  # line[3]: the top of its rays
    result = []
    for neg, rays in cones:
        # sum_j ray_j / top_j, over the common denominator of the tops.
        common = lcm(*(line[3] for line, _ in rays))
        factors = [s * (common // line[3]) for line, s in rays]
        total = [sum(map(mul, factors, column)) for column in zip(*(line[0] for line, _ in rays))]
        # Bit i of neg as character i: '0' < '1' sorts as '+' < '-' does.
        bits = format(neg, f"0{n}b")[::-1]
        result.append((bits, Region(SignVector(tuple(map(sign_of, bits))), _ray(total))))
    result.sort(key=itemgetter(0))
    return [region for _, region in result]

