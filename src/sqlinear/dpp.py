"""Projection determinantal point processes and their squared linear models.

A projection DPP on k-subsets of [n] has state probabilities proportional
to squared maximal minors of a k x n matrix. Fixing all rows but the last
gives a linear projection DPP; eliminating k-1 parameters by row reduction
turns its states into the hyperplanes spanned by (n-k)-subsets of n reduced
points in P^(n-k), i.e. a discriminantal arrangement. ML degrees then come
from region counts, with a closed quartic formula in the codimension-2 case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .arrangement import Arrangement
from .errors import RankDeficient, ReductionFailed, ValidationError


@dataclass(frozen=True)
class DPPModel:
    """Linear projection DPP: fixed rows plus one symbolic parameter row."""

    Theta_fixed: tuple
    k: int
    n: int

    def __post_init__(self):
        rows = ratlin.frac_matrix(self.Theta_fixed)
        object.__setattr__(self, "Theta_fixed", rows)
        if not self.k < self.n:
            raise ValidationError(f"need k < n, got k = {self.k}, n = {self.n}")
        if len(rows) != self.k - 1 or (rows and len(rows[0]) != self.n):
            raise ValidationError("Theta_fixed must be (k-1) x n")
        if ratlin.rank(rows) != self.k - 1:
            raise RankDeficient("fixed parameter rows are linearly dependent")

    @property
    def states(self):
        return tuple(itertools.combinations(range(self.n), self.k))


@dataclass(frozen=True)
class SubsetDistribution:
    states: tuple
    probs: object  # float array, one probability per state

    def __getitem__(self, sigma):
        return self.probs[self.states.index(tuple(sigma))]


@dataclass(frozen=True)
class DiscriminantalArrangement:
    """Reduction of a linear projection DPP to an arrangement in P^(n-k).

    Row i of ``arrangement`` is the linear form (in the surviving parameters)
    whose square is proportional to the probability of ``states[i]``.
    ``points`` are the n reduced configuration points whose subset spans cut
    out the same hyperplanes; ``column_permutation`` records any relabeling
    needed to invert the trailing block.
    """

    arrangement: Arrangement
    states: tuple
    points: tuple
    column_permutation: tuple


def dpp_probabilities(Theta) -> SubsetDistribution:
    """Probabilities det(Theta_sigma)^2 / det(Theta Theta^T) over k-subsets.

    The denominator is the Cauchy-Binet total of the squared minors, so the
    distribution is normalized by construction up to roundoff. Scaling a row
    leaves the probabilities unchanged, so the rank test runs on rows scaled
    to max |entry| = 1: its tolerance is relative to the largest singular
    value, and would take a badly scaled row for a dependent one. The minors
    use the same scaled rows, so they neither overflow nor underflow.
    """
    import numpy as np

    from .mle import to_floats

    Theta = to_floats(Theta, "Theta")
    k, n = Theta.shape
    top = np.abs(Theta).max(axis=1, initial=0.0)
    if k > n or not np.all(top > 0):
        raise RankDeficient("parameter matrix must have full row rank k")
    scaled = Theta / top[:, None]
    if np.linalg.matrix_rank(scaled) < k:
        raise RankDeficient("parameter matrix must have full row rank k")
    states = tuple(itertools.combinations(range(n), k))
    minors = np.array([np.linalg.det(scaled[:, sigma]) for sigma in states])
    return SubsetDistribution(states=states, probs=minors**2 / float(np.linalg.det(scaled @ scaled.T)))


def reduced_points(dpp: DPPModel):
    """Point configuration [I | -A1^T] from row-reducing the fixed block.

    Pivots on k-1 independent columns, picked greedily from the right so as
    to stay close to the standard normal form: they are the trailing block
    whenever it is invertible, and otherwise the column permutation that
    moves them last is reported with the result. They exist, as the fixed
    rows are independent.
    """
    k, n = dpp.k, dpp.n
    m = n - k + 1  # surviving parameters, the ambient dimension of the points
    columns = ratlin.transpose(dpp.Theta_fixed)[::-1]
    chosen = sorted(n - 1 - i for i in ratlin.IntEchelon.independent_rows(columns, k - 1))
    perm = tuple([c for c in range(n) if c not in chosen] + chosen)
    inverse = ratlin.inverse([[row[c] for c in chosen] for row in dpp.Theta_fixed])
    fixed = [[dpp.Theta_fixed[r][c] for c in perm] for r in range(k - 1)]
    reduced = ratlin.matmul(inverse, fixed)  # [A1 | I]
    unit = [tuple(Fraction(int(c == r)) for r in range(m)) for c in range(m)]
    points = unit + [tuple(-v for v in row[:m]) for row in reduced]
    return tuple(points), perm, tuple(tuple(row) for row in reduced)


def linear_projection_arrangement(dpp: DPPModel) -> DiscriminantalArrangement:
    """The discriminantal arrangement presenting the DPP as a squared model.

    For each state sigma, the minor det(Theta_sigma) of the reduced matrix
    is expanded along the parameter row into a linear form in the surviving
    parameters; the forms are exactly the hyperplanes spanned by (n-k)-point
    subsets of the reduced configuration (cross-checked in the test suite).
    """
    k, n = dpp.k, dpp.n
    m = n - k + 1
    points, perm, reduced = reduced_points(dpp)
    # Reduced matrix with symbolic last row: [[A1 | I], [t | 0]].
    rows = []
    labels = []
    for sigma in dpp.states:
        sigma_perm = tuple(sorted(perm.index(c) for c in sigma))
        coeffs = [Fraction(0)] * m
        for pos, c in enumerate(sigma_perm):
            if c >= m:
                continue  # parameter row has zeros beyond the first m columns
            minor_cols = [cc for cc in sigma_perm if cc != c]
            sub = [[reduced[r][cc] for cc in minor_cols] for r in range(k - 1)]
            sign = -1 if (k - 1 + pos) % 2 else 1
            coeffs[c] = sign * ratlin.det(sub) if sub else Fraction(sign)
        if all(v == 0 for v in coeffs):
            raise ReductionFailed(f"state {sigma} produced the zero form; fixed rows not generic")
        # Rows are NOT rescaled: the probability of each state must stay
        # proportional to the square of its form with one common constant.
        rows.append(tuple(coeffs))
        labels.append("{" + ",".join(str(i + 1) for i in sigma) + "}")
    arrangement = Arrangement(A=tuple(rows), labels=tuple(labels))
    return DiscriminantalArrangement(
        arrangement=arrangement,
        states=dpp.states,
        points=points,
        column_permutation=perm,
    )


def hyperplane_through(points, subset):
    """Primitive normal of the projective hyperplane spanned by the points.

    Points are vectors in R^m read projectively, so the hyperplane through
    them is the kernel of the matrix they form as rows.
    """
    chosen = [points[i] for i in subset]
    kernel = ratlin.nullspace(chosen, ncols=len(points[0]))
    if len(kernel) != 1:
        raise ValidationError(f"points {subset} do not span a hyperplane")
    return ratlin.primitive(kernel[0])


def dpp_ml_degree_l2(n: int) -> int:
    """ML degree of the generic linear projection DPP with l = n - k = 2.

    Evaluates (n-1)(n^3 - 5n^2 + 14n - 8)/8, the region count of the
    discriminantal arrangement of n generic points in the plane.
    """
    if n < 4:
        raise ValidationError("the codimension-2 formula needs n >= 4")
    value = (n - 1) * (n**3 - 5 * n**2 + 14 * n - 8)
    if value % 8:
        raise AssertionError("quartic formula must be divisible by 8")
    return value // 8
