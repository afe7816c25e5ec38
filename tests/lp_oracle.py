"""An exact LP and region enumeration by LPs, as test oracles; the library
holds no LP.

:func:`feasible_point` is the phase-1 simplex over ``Fraction``s with
Bland's rule, every basic variable normalized to coefficient 1: the
reference LP of the tests (tests/test_exact.py and tests/test_simplex.py
check it directly).

:func:`enumerate_regions` is region enumeration by LPs alone: one LP per
(region, inserted hyperplane), infeasible or not.
tests/test_regions_oracle.py checks that the ray-only enumeration of
:mod:`sqlinear.arrangement` returns the same sign vectors in the same order.
Its rays are LP vertices cleared to primitive integers, not the library's
ray sums.
"""

from __future__ import annotations

from fractions import Fraction

from dd_oracle import parallel_pairs
from sqlinear import ratlin
from sqlinear.arrangement import Region, SignVector, _ray, _require_essential
from sqlinear.errors import ParallelRows

ZERO = Fraction(0)
ONE = Fraction(1)


def feasible_point(rows):
    """Return x with row . x >= 1 for every row, or None if infeasible.

    Free variables are split as x = u - v; slacks s and artificials a give
    the start basis:  M u - M v - s + a = 1,  minimize sum(a).
    """
    m = len(rows)
    if m == 0:
        return ()
    d = len(rows[0])
    ncols = 2 * d + 2 * m
    tableau = []
    for i, row in enumerate(rows):
        line = [ZERO] * (ncols + 1)
        for j, v in enumerate(row):
            line[j] = Fraction(v)
            line[d + j] = -Fraction(v)
        line[2 * d + i] = -ONE
        line[2 * d + m + i] = ONE
        line[ncols] = ONE
        tableau.append(line)
    # Reduced costs for min sum(a) with the artificial basis priced out.
    obj = [ZERO] * (ncols + 1)
    for line in tableau:
        for j in range(ncols + 1):
            obj[j] -= line[j]
    for i in range(m):
        obj[2 * d + m + i] = ZERO
    basis = [2 * d + m + i for i in range(m)]

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][ncols] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Unbounded phase-1 objective cannot happen (bounded below by 0).
            return None
        # Zero entries are skipped: 0 / piv and a - f * 0 are the values kept.
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv if v else v for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b if b else a for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b if b else a for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    if -obj[ncols] != 0:
        return None
    x = [ZERO] * d
    for i, var in enumerate(basis):
        value = tableau[i][ncols]
        if var < d:
            x[var] += value
        elif var < 2 * d:
            x[var - d] -= value
    return tuple(x)


def enumerate_regions(arr):
    """All regions of the projective complement, with one LP per split test."""
    _require_essential(arr)
    pairs = parallel_pairs(arr)
    if pairs:
        raise ParallelRows(pairs)
    A = arr.A
    # signed[i][s] is s * A[i], built once instead of once per cone.
    signed = [{1: row, -1: ratlin.scale(row, -1)} for row in A]
    first = A[0]
    w0 = ratlin.scale(first, 1 / ratlin.dot(first, first))
    regions = [((1,), w0)]
    for h in range(1, arr.n):
        row = A[h]
        grown = []
        for signs, witness in regions:
            cone = [signed[i][s] for i, s in enumerate(signs)]
            value = ratlin.dot(row, witness)
            if value != 0:
                side = 1 if value > 0 else -1
                other = feasible_point(cone + [signed[h][-side]])
                grown.append((signs + (side,), witness))
                if other is not None:
                    grown.append((signs + (-side,), other))
            else:
                # Witness sits on the new hyperplane: both sides are cut out.
                for side in (1, -1):
                    point = feasible_point(cone + [signed[h][side]])
                    if point is not None:
                        grown.append((signs + (side,), point))
        regions = grown
    result = []
    for signs, witness in regions:
        result.append(Region(sign=SignVector(signs), ray=_ray(ratlin.cleared(witness)[0])))
    result.sort(key=lambda region: str(region.sign))
    return result
