"""Test oracles: the per-cone double description and the truncating chi walk.

These are the rules :mod:`sqlinear.arrangement` followed before it shared one
line table between all cones and walked chi on persistent echelons.

:func:`enumerate_regions` splits every cone on its own with :func:`_split`,
evaluating a ray on the new row once per cone that holds it, and
:func:`cone_rays` cuts one cone out row by row the same way.
:func:`characteristic_polynomial` walks the no-broken-circuit tree on one
shared :class:`IntEchelon`, truncated back to each node's rank when the
node is popped. Regions keep the Fraction witnesses that enumeration built
before it returned integer rays. tests/test_dd_oracle.py checks that the
library returns the same regions, witnesses, ordered cone rays and chi.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from sqlinear import ratlin
from sqlinear.arrangement import (
    CharacteristicPolynomial,
    SignVector,
    _ray,
    _require_essential,
    _simplicial_start,
)
from sqlinear.errors import ParallelRows


def parallel_pairs(arr):
    """(first index, later index) for every row parallel to an earlier one,
    from the Fraction rows, as enumeration checked before its integer pass."""
    prims = [ratlin.primitive(row) for row in arr.A]
    seen = {}
    pairs = []
    for i, p in enumerate(prims):
        if p in seen:
            pairs.append((seen[p], i))
        else:
            seen[p] = i
    return pairs


def _split(rays, row, bit, d):
    """One double-description step: the extreme rays of both halves of a cone.

    ``rays`` are the (vector, zero mask) pairs of a pointed cone's extreme
    rays, the mask holding the bits of the inserted rows that vanish on the
    ray. Returns {1: rays of cone & {row >= 0}, -1: rays of cone & {row <= 0}},
    with None for a half that no ray enters strictly: its open part is empty.
    Rays on the hyperplane gain ``bit``; each adjacent pair across it adds
    the ray where their 2-face meets it. Two rays are adjacent when their
    common zero set has at least d - 2 rows and no third ray vanishes on all
    of them (Fukuda & Prodon 1996).
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


def _orthant_rays(signs, chosen, base):
    """Rays of the simplicial cone {s_i A_i x >= 0 : i in chosen}, s = ``signs``."""
    full = sum(1 << i for i in chosen)
    return [(tuple(signs[i] * v for v in ray), full & ~(1 << i)) for i, ray in zip(chosen, base)]


def cone_rays(signs, chosen, base, ints, d):
    """Extreme rays of the closed cone {s_i A_i x >= 0 : i < len(signs)}, in the
    order of :func:`sqlinear.arrangement._cone_rays`."""
    rays = _orthant_rays(signs, chosen, base)
    for i in range(len(signs)):
        if i not in chosen:
            rays = _split(rays, ints[i], 1 << i, d)[signs[i]]
    return rays


# A region as enumeration returned it before it kept the integer ray: the
# sign vector and the Fraction witness, the ray sum over its largest |entry|.
OracleRegion = namedtuple("OracleRegion", "sign witness")


def enumerate_regions(arr):
    """Regions with the library's signs and witnesses, one cone split at a time."""
    _require_essential(arr)
    pairs = parallel_pairs(arr)
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
        result.append(OracleRegion(SignVector(signs), tuple(Fraction(v, top) for v in total)))
    result.sort(key=lambda region: str(region.sign))
    return result


class IntEchelon:
    """Incremental integer echelon form, reduced with :func:`ratlin.row_update`:
    the greedy independent-row picker that the library had beside its
    Gauss-Jordan pass."""

    __slots__ = ("rows", "lead")

    def __init__(self):
        self.rows = []
        self.lead = []

    def insert(self, row) -> bool:
        """Reduce the integer ``row`` against the current basis; True if rank grew.

        A basis as wide as ``row`` spans it, so that case returns at once.
        """
        if len(self.rows) == len(row):
            return False
        for basis, lead in zip(self.rows, self.lead):
            if row[lead] != 0:
                row, _ = ratlin.row_update(basis[lead], row, row[lead], basis)
        leadpos = next((i for i, v in enumerate(row) if v != 0), None)
        if leadpos is None:
            return False
        self.rows.append(row)
        self.lead.append(leadpos)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class TruncatingEchelon(IntEchelon):
    """The shared echelon form of the old walk, which it cut back per node."""

    __slots__ = ()

    def truncate(self, rank):
        del self.rows[rank:], self.lead[rank:]


def characteristic_polynomial(arr):
    """chi(t) from the no-broken-circuit walk on one truncated echelon form."""
    n = arr.n
    rows = [ratlin.primitive(row) for row in arr.A]
    acc = [0] * (arr.d + 1)
    echelon = TruncatingEchelon()
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
    return CharacteristicPolynomial(coeffs=tuple(acc))

