"""Test oracles for the exact LP layer.

:func:`feasible_point` is the phase-1 simplex over ``Fraction``s, the
textbook form of :func:`sqlinear.simplex.feasible_point`: the same LP
(x = u - v, slacks, artificials) and the same Bland pivots, with every basic
variable normalized to coefficient 1. The library's kernel runs on integer
rows instead; tests/test_simplex.py checks that both return the same exact
point, LP by LP.

:func:`enumerate_regions` is region enumeration without the extreme-ray
screen: one LP per (region, inserted hyperplane), infeasible or not. It calls
the LP as ``simplex.feasible_point`` so a test can count its calls;
tests/test_regions_oracle.py checks that the screened enumeration of
:mod:`sqlinear.arrangement` returns the same regions and witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from sqlinear import ratlin, simplex
from sqlinear.arrangement import Region, SignVector, _parallel_pairs, _require_essential
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
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
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
    pairs = _parallel_pairs(arr)
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
                other = simplex.feasible_point(cone + [signed[h][-side]])
                grown.append((signs + (side,), witness))
                if other is not None:
                    grown.append((signs + (-side,), other))
            else:
                # Witness sits on the new hyperplane: both sides are cut out.
                for side in (1, -1):
                    point = simplex.feasible_point(cone + [signed[h][side]])
                    if point is not None:
                        grown.append((signs + (side,), point))
        regions = grown
    result = []
    for signs, witness in regions:
        top = max(abs(v) for v in witness)
        scaled = tuple(v / top for v in witness)
        result.append(Region(sign=SignVector(signs), witness=scaled))
    result.sort(key=Region.key)
    return result
