"""Small exact linear algebra kernel over the rationals.

Matrices are tuples/lists of row tuples of ``fractions.Fraction``. Everything
here is deterministic; downstream modules rely on that for reproducible
kernel bases and witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings, floats and Fractions to Fraction.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10 and
    not the exact binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def frac_matrix(rows):
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def matvec(rows, x):
    return tuple(dot(row, x) for row in rows)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def scale(vec, c):
    return tuple(c * v for v in vec)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero(vec) -> bool:
    return all(v == 0 for v in vec)


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero entry > 0."""
    vec = tuple(as_fraction(v) for v in vec)
    common = lcm(*(v.denominator for v in vec))
    ints = [int(v * common) for v in vec]
    g = gcd(*ints)
    if g == 0:
        return tuple(0 for _ in ints)
    ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
    """Basis of {x : rows @ x = 0}, from the rref standard construction.

    Basis vectors carry a 1 in their free column, which makes the result
    deterministic. Returns a tuple of Fraction vectors.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = len(rows[0])
    if not rows:
        return tuple(tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols))
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
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


def int_rows(rows):
    """Clear denominators row by row (rank and matroid data are unchanged)."""
    return tuple(primitive(row) for row in rows)


class IntEchelon:
    """Incremental integer echelon form used for subset-rank enumeration.

    Rows are reduced with cross-multiplication, so no fractions appear.
    ``copy()`` is cheap enough for a depth-first subset walk.
    """

    __slots__ = ("rows", "lead")

    def __init__(self):
        self.rows = []
        self.lead = []

    def copy(self):
        other = IntEchelon.__new__(IntEchelon)
        other.rows = list(self.rows)
        other.lead = list(self.lead)
        return other

    def insert(self, row) -> bool:
        """Reduce ``row`` against the current basis; True if rank grew."""
        row = list(row)
        for basis, lead in zip(self.rows, self.lead):
            if row[lead] != 0:
                a, b = basis[lead], row[lead]
                row = [b0 * a - a0 * b for a0, b0 in zip(basis, row)]
        leadpos = next((i for i, v in enumerate(row) if v != 0), None)
        if leadpos is None:
            return False
        g = gcd(*row)
        if g > 1:
            row = [v // g for v in row]
        self.rows.append(row)
        self.lead.append(leadpos)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
