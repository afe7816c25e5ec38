"""Test oracle: the ``Fraction`` elimination loops that ``sqlinear.ratlin`` had.

``rref``, ``solve`` and ``det`` are the textbook loops over ``Fraction``
entries, kept unchanged; ``rank``, ``nullspace`` and ``inverse`` are read off
them. The library now runs one integer Gauss-Jordan pass instead;
tests/test_ratlin.py checks that both give the same exact results. Feed these
``Fraction`` entries: on plain ints ``1 / m[r][c]`` is a float.

``independent_rows`` is the greedy picker that ``model._repair_permutation``
and ``dpp._repair_columns`` each ran, here with oracle ranks.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form. Returns (rref rows, pivot column indices)."""
    m = [list(row) for row in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0])
    if not rows:
        return tuple(tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols))
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def solve(rows, rhs):
    """Solve a square nonsingular system exactly; None when singular."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def det(rows):
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def inverse(rows):
    """Rows of the inverse from one solve per unit vector; None when singular."""
    n = len(rows)
    cols = [solve(rows, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    if any(col is None for col in cols):
        return None
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def independent_rows(rows, count):
    """Indices of the first ``count`` rows that raise the rank, or None."""
    chosen = []
    for i, row in enumerate(rows):
        if len(chosen) == count:
            break
        if rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen if len(chosen) == count else None
