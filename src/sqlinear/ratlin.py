"""Small exact linear algebra kernel over the rationals.

Matrices are tuples/lists of row tuples of ``fractions.Fraction`` (ints are
accepted too). ``rank``, ``nullspace``, ``solve``, ``inverse``, ``det`` and
``independent_rows`` all read their answers off one integer Gauss-Jordan
pass built on :func:`row_update`, the one integer row step of the exact
layer: the chi walk and the double description in :mod:`.arrangement` use
it too. Integer rows stay content-free (:func:`content_free`), as
:func:`row_update` returns them; :func:`direction` fixes their sign, the
key of a row's direction, and :func:`primitive` does both. Everything here
is deterministic; downstream modules rely on that for reproducible kernel
bases and witnesses. Exact values turn into doubles in one place,
:func:`sqlinear.mle.to_floats`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral
from operator import neg


def as_fraction(value) -> Fraction:
    """Coerce integers, 'p/q' strings, floats and Fractions to Fraction.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10 and
    not the exact binary expansion. numpy's integers are ``Integral`` and its
    float64 is a ``float``, so their scalars convert as Python's do.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(float.__repr__(value))
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, Integral)):  # int first: the ABC check is ~20x slower
        return Fraction(int(value))
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


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero(vec) -> bool:
    return all(v == 0 for v in vec)


def cleared(row):
    """(integer row, lcd): ``row`` times the lcm of its denominators; lcd 1 for a row of ints."""
    if row and type(row[0]) is int and all(map(int.__instancecheck__, row)):  # a Fraction row stops at once
        return list(row), 1
    ratios = [v.as_integer_ratio() for v in row]
    lcd = lcm(*[q for _, q in ratios])
    return [p * (lcd // q) for p, q in ratios], lcd


def content_free(ints):
    """Integer vector divided by the gcd of its entries (direction kept)."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def direction(ray):
    """Content-free vector with its first nonzero entry > 0, as a tuple: the
    key of its direction up to sign."""
    return tuple(ray) if next(filter(None, ray), 0) >= 0 else tuple(map(neg, ray))


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero entry > 0."""
    return direction(content_free(cleared([as_fraction(v) for v in vec])[0]))


def row_update(a, row, b, pivot_row):
    """``a * row - b * pivot_row`` over the gcd g of its entries; returns (row, g).

    With ``a = pivot_row[c]`` and ``b = row[c]`` this clears column c in
    integers (fraction-free elimination, Bareiss 1968, dividing out the row
    content); g == 0 means the row became zero. It is the row step of
    :func:`_gauss_jordan`, the one elimination pass here.
    """
    line = [a * x - b * y for x, y in zip(row, pivot_row)]
    g = gcd(*line)
    return ([v // g for v in line] if g > 1 else line), g


def _gauss_jordan(rows, width=None):
    """The one elimination loop: integer Gauss-Jordan on ``rows``.

    Rows are cleared of denominators and their first ``width`` columns
    (default: all) reduced with :func:`row_update`; later columns ride along.
    Returns (m, pivots, (num, den)): row r < len(pivots) of ``m`` is a nonzero
    multiple of reduced echelon row r, the rest vanish on the first ``width``
    columns, and det(rows) = num * prod(m[r][r]) / den for square nonsingular
    rows (num and den track the swaps, row updates and clearing).
    """
    m = []
    num, den = 1, 1
    for row in rows:
        ints, lcd = cleared(row)
        m.append(ints)
        den *= lcd
    if width is None:
        width = len(m[0]) if m else 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            num = -num
        pivot_row = m[r]
        a = pivot_row[c]
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                m[i], g = row_update(a, row, row[c], pivot_row)
                num *= g
                den *= a
        pivots.append(c)
    return m, pivots, (num, den)


def rank(rows) -> int:
    return len(_gauss_jordan(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {x : rows @ x = 0}, from the rref standard construction.

    Basis vectors carry a 1 in their free column, which makes the result
    deterministic. Returns a tuple of Fraction vectors.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = len(rows[0])
    m, pivots, _ = _gauss_jordan(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(m, pivots):
            vec[c] = Fraction(-row[f], row[c])
        basis.append(tuple(vec))
    return tuple(basis)


def solve(rows, rhs):
    """Solve a square nonsingular system exactly; None when singular."""
    n = len(rows)
    m, pivots, _ = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], row[r]) for r, row in enumerate(m))


def inverse(rows):
    """Inverse of a square matrix as a tuple of rows; None when singular."""
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots, _ = _gauss_jordan(augmented, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(Fraction(v, row[r]) for v in row[n:]) for r, row in enumerate(m))


def det(rows):
    """Determinant of a square matrix, from the same integer pass."""
    m, pivots, (num, den) = _gauss_jordan(rows)
    if len(pivots) < len(m):
        return Fraction(0)
    for r, row in enumerate(m):
        num *= row[r]
    return Fraction(num, den)


def independent_rows(rows, count):
    """Indices of the first ``count`` rows that each raise the rank, or None.

    Greedy in the given order; the rows may be rational. They are the pivot
    columns of the transpose.
    """
    pivots = _gauss_jordan(transpose(rows))[1]
    return pivots[:count] if len(pivots) >= count else None
