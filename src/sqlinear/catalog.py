"""Ready-made arrangements used throughout the tests and the docs."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arrangement import Arrangement, characteristic_polynomial
from .errors import ValidationError


def steiner_arrangement() -> Arrangement:
    """Four lines in the projective plane: x1, x2, x3, x1+x2+x3."""
    return Arrangement(
        A=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        labels=("x1", "x2", "x3", "x1+x2+x3"),
    )


def braid_arrangement(c: int) -> Arrangement:
    """Braid arrangement on c items in essential coordinates (x_c = 0).

    States are the pairs (i, j), i < j, in lexicographic order; the form for
    (i, j) is x_i - x_j with x_c eliminated.
    """
    if c < 3:
        raise ValidationError("braid arrangement needs c >= 3")
    d = c - 1
    rows = []
    labels = []
    for i, j in itertools.combinations(range(1, c + 1), 2):
        row = [Fraction(0)] * d
        if i <= d:
            row[i - 1] += 1
        if j <= d:
            row[j - 1] -= 1
        rows.append(tuple(row))
        labels.append(f"{i}{j}")
    return Arrangement(A=tuple(rows), labels=tuple(labels))


def circle_arrangement() -> Arrangement:
    """Three points on the projective line: x1, x2, x1+x2 (inscribed-circle model)."""
    return Arrangement(A=((1, 0), (0, 1), (1, 1)), labels=("x1", "x2", "x1+x2"))


def four_points_arrangement() -> Arrangement:
    """Rank-2 uniform matroid on four points: x1, x1+x2, x1+2*x2, x2.

    This is the standard non-generic example: two degenerate critical points
    collide for unit data at the first state.
    """
    return Arrangement(
        A=((1, 0), (1, 1), (1, 2), (0, 1)),
        labels=("x1", "x1+x2", "x1+2x2", "x2"),
    )


def six_points_arrangement() -> Arrangement:
    """Six points x1 + i*x2 on the projective line (chamber-wall example)."""
    return Arrangement(
        A=tuple((Fraction(1), Fraction(i)) for i in range(1, 7)),
        labels=tuple(f"x1+{i}x2" for i in range(1, 7)),
    )


def seven_lines_arrangement() -> Arrangement:
    """Seven explicit lines in the plane whose squares span all quadrics."""
    return Arrangement(
        A=(
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
            (1, 2, 3),
            (1, 5, 7),
            (1, 11, 13),
        ),
    )


def random_arrangement(d: int, n: int, rng, lo: int = -9, hi: int = 9) -> Arrangement:
    """Random integer arrangement with uniform matroid (all d-subsets independent).

    Rejection-sampled from entries in [lo, hi], so the result is
    deterministic for a seeded rng; a few dozen rows need a range wider than
    the default, such as -99..99, or all 2000 draws may fail. Rows that are
    nonzero are generic exactly when chi has rank d and the ML degree
    equals Cover's bound B(n, d) = sum_{k<d} C(n-1, k) (Cover, IEEE Trans.
    Electron. Comput. 1965; Zaslavsky, Mem. AMS 1975), so one chi walk decides
    a draw. Parallel rows give chi of fewer hyperplanes, below the bound. For
    n distinct ones, by induction on n, deletion and restriction to a row H
    count regions as r(A) = r(A minus H) + r(A^H), A^H being at most n - 1
    hyperplanes in dimension d - 1, and Pascal's rule splits B(n, d) the same
    way, so equality forces A minus H and A^H to be generic, and so every
    d-subset, with or without H, to be independent.
    """
    if d < 1 or n < d or d == 1 < n:
        raise ValidationError(f"no generic ({d}, {n}) arrangement: need 1 <= d <= n, and n = 1 when d = 1")
    if lo > hi:
        raise ValidationError(f"empty entry range [{lo}, {hi}]")
    bound = sum(math.comb(n - 1, k) for k in range(d))
    for _ in range(2000):
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n))
        if not all(map(any, rows)):  # Arrangement refuses a zero row
            continue
        arr = Arrangement(A=rows)
        chi = characteristic_polynomial(arr)
        if chi.coeffs[d] and chi.ml_degree() == bound:
            return arr
    raise ValidationError(f"could not sample a generic ({d}, {n}) arrangement from [{lo}, {hi}] in 2000 draws")
