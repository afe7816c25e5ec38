"""Exact rational feasibility LP.

Region enumeration needs one primitive: given rows r_1,...,r_m, decide
whether {x : r_i . x >= 1 for all i} is nonempty and produce a point in it.
Since the sets we probe are open polyhedral cones, feasibility of the >= 1
system is equivalent to the cone having interior, and any feasible point is
strictly inside the cone.

Phase-1 simplex on integer rows with Bland's rule, exact and gcd-normalized;
the ``Fraction`` version is kept in the tests as the oracle. Each row is a
positive multiple of the row a ``Fraction`` tableau would hold, so signs,
ratio tests and hence all pivots are the same: no cycling and no tolerance
questions near degenerate arrangements.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ratlin import cleared, row_update


def feasible_point(rows):
    """Return x with row . x >= 1 for every row, or None if infeasible.

    Free variables are split as x = u - v; slacks s and artificials a give
    the start basis:  M u - M v - s + a = 1,  minimize sum(a). Row i is
    stored times the lcm of its denominators; the objective is row m.
    """
    m = len(rows)
    if m == 0:
        return ()
    d = len(rows[0])
    ncols = 2 * d + 2 * m
    tableau = []
    for i, row in enumerate(rows):
        ints, scale = cleared(row)
        line = ints + [-v for v in ints] + [0] * (2 * m) + [scale]
        line[2 * d + i] = -scale
        line[2 * d + m + i] = scale
        tableau.append(line)
    # Reduced costs for min sum(a) with the artificial basis priced out,
    # over the common denominator of all rows (each rhs is its row's scale).
    common = lcm(*(line[ncols] for line in tableau))
    obj = [0] * (ncols + 1)
    for line in tableau:
        f = common // line[ncols]
        obj = [a - f * b for a, b in zip(obj, line)]
    obj[2 * d + m :] = [0] * m + [obj[ncols]]
    tableau.append(obj)
    basis = [2 * d + m + i for i in range(m)]

    while True:
        enter = next((j for j in range(ncols) if tableau[m][j] < 0), None)
        if enter is None:
            break
        # Ratio test rhs_i / coef_i, cross-multiplied; ties go to the
        # smallest basic variable.
        leave = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is not None:
                    lhs = tableau[i][ncols] * tableau[leave][enter]
                    rhs = tableau[leave][ncols] * coef
                if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded phase-1 objective cannot happen (bounded below by 0).
            return None
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        for i, line in enumerate(tableau):
            f = line[enter]
            if i != leave and f != 0:
                # piv > 0 keeps every row a positive multiple of its Fraction row.
                tableau[i], _ = row_update(piv, line, f, pivot_row)
        basis[leave] = enter

    if tableau[m][ncols] != 0:
        return None
    x = [Fraction(0)] * d
    for line, var in zip(tableau, basis):
        if var < 2 * d:  # u_j adds to x_j, v_j subtracts
            x[var % d] += (1 if var < d else -1) * Fraction(line[ncols], line[var])
    return tuple(x)
