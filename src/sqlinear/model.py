"""The squared linear model: evaluation, likelihood, implicit generators.

State probabilities are p_i(x) = l_i(x)^2 / q(x) with q the sum of all
squared forms. The implicit-ideal constructions are exact rational; the
one-point float functions import numpy when called and share the likelihood
formulas of :class:`.mle.Likelihood` with the Newton solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .arrangement import Arrangement, KernelComplement, kernel_complement
from .errors import DegenerateLeadingBlock, OnHyperplane, RankDeficient, ValidationError, ZeroPoint


@dataclass(frozen=True)
class SquaredLinearModel:
    arr: Arrangement
    B: KernelComplement

    def __post_init__(self):
        if not self.arr.n > self.arr.d > 1:
            raise RankDeficient(
                f"model needs n > d > 1, got n = {self.arr.n}, d = {self.arr.d}"
            )

    @property
    def n(self) -> int:
        return self.arr.n

    @property
    def d(self) -> int:
        return self.arr.d

    @property
    def N(self) -> int:
        """Dimension of the space of quadrics in d variables, d(d+1)/2."""
        return self.d * (self.d + 1) // 2

    @property
    def A_float(self):
        from .mle import to_floats

        return to_floats(self.arr.A, "A")

    @property
    def B_float(self):
        from .mle import to_floats

        return to_floats(self.B.B, "B")


def make_model(arr: Arrangement) -> SquaredLinearModel:
    return SquaredLinearModel(arr=arr, B=kernel_complement(arr))


def parameters_of(model: SquaredLinearModel, ys):
    """Exact x with A x = y for each y in the image of A, from the Gram
    system (A^T A) x = A^T y; A has full column rank in every model."""
    At = ratlin.transpose(model.arr.A)
    gram_inverse = ratlin.inverse(ratlin.matmul(At, model.arr.A))
    return [
        ratlin.matvec(gram_inverse, ratlin.matvec(At, tuple(ratlin.as_fraction(v) for v in y)))
        for y in ys
    ]


def evaluate(model: SquaredLinearModel, x):
    """Probability vector p(x); entries sum to one."""
    from .mle import _checked_point

    squares = _checked_point(model, x)[1] ** 2
    return squares / squares.sum()


def evaluate_exact(model: SquaredLinearModel, x):
    """Rational probability vector for rational x."""
    values = model.arr.form_values(tuple(ratlin.as_fraction(v) for v in x))
    squares = [v * v for v in values]
    total = sum(squares)
    if total == 0:
        raise ZeroPoint("zero vector is not a projective point")
    return tuple(v / total for v in squares)


def _one_point(model: SquaredLinearModel, s, x):
    """(evaluator, (1, n) form values, whether x lies on a hyperplane of
    positive weight) for one point, checked as :func:`.mle._checked_point`
    checks it."""
    import numpy as np

    from .mle import Likelihood, _checked_point

    A, values, s = _checked_point(model, x, s)
    return Likelihood(A, s), values[None, :], bool(np.any((values == 0.0) & (s != 0.0)))


def log_likelihood(model: SquaredLinearModel, s, x) -> float:
    """sum_i s_i log p_i(x), invariant under rescaling x; -inf when x sits on
    a hyperplane with s_i > 0."""
    loglik, V, on_hyperplane = _one_point(model, s, x)
    return -math.inf if on_hyperplane else float(loglik(V)[0])


def gradient(model: SquaredLinearModel, s, x):
    """Gradient of the log-likelihood in the ambient coordinates; orthogonal
    to x by homogeneity."""
    loglik, V, on_hyperplane = _one_point(model, s, x)
    if on_hyperplane:
        raise OnHyperplane("gradient undefined on a hyperplane with positive weight")
    return loglik.hessian(V)[1][0]


def quadric_monomials(d: int):
    """Pairs (i, j), i <= j, ordering the monomial basis x_i x_j of quadrics.

    Ordered by the larger index first: (x1^2, x1x2, x2^2, x1x3, ...), so the
    entries of the symmetric matrix built from them fill in column by column.
    """
    return tuple((i, j) for j in range(d) for i in range(j + 1))


def squared_form_row(row, monomials):
    """Coefficients of l(x)^2 in the quadric monomial basis, for l = row . x."""
    coeffs = []
    for i, j in monomials:
        if i == j:
            coeffs.append(row[i] * row[i])
        else:
            coeffs.append(2 * row[i] * row[j])
    return tuple(coeffs)


@dataclass(frozen=True)
class VeroneseGenerators:
    """Implicit generators for n >= d(d+1)/2: linear forms plus 2x2 minors.

    ``linear_forms`` is a basis (length-n coefficient vectors) of the linear
    part of the ideal; ``R`` is the d x d symmetric matrix whose (i, j) entry
    is a linear form in p_1..p_N, stored as its length-N coefficient vector.
    R has rank one on the model, so all its 2x2 minors vanish there.
    """

    L: tuple
    linear_forms: tuple
    R: tuple
    monomials: tuple

    def r_matrix_at(self, p):
        """Evaluate R at a probability vector (exact for rational input)."""
        d = len(self.R)
        return tuple(
            tuple(sum(c * pv for c, pv in zip(self.R[i][j], p)) for j in range(d))
            for i in range(d)
        )


def veronese_generators(model: SquaredLinearModel) -> VeroneseGenerators:
    """Generators of the implicit ideal in the large-n regime.

    Needs n >= N = d(d+1)/2 and the squares of the first N forms linearly
    independent; otherwise a row permutation that repairs the leading block
    is reported rather than silently applied, so row labels stay meaningful.
    """
    d, n, N = model.d, model.n, model.N
    if n < N:
        raise ValidationError(f"need n >= d(d+1)/2 = {N}, got n = {n}")
    monomials = quadric_monomials(d)
    L = tuple(squared_form_row(row, monomials) for row in model.arr.A)
    inverse_rows = ratlin.inverse(L[:N])
    if inverse_rows is None:
        perm = ratlin.IntEchelon.independent_rows(L, N)
        if perm is not None:
            perm = tuple(perm + [i for i in range(n) if i not in perm])
        raise DegenerateLeadingBlock(
            "squares of the first N forms are linearly dependent",
            permutation=perm,
        )
    # Entry (i,j) of R is the row of L[:N]^{-1} attached to monomial x_i x_j,
    # as a linear form in p_1..p_N.
    index = {mon: k for k, mon in enumerate(monomials)}
    R = tuple(
        tuple(inverse_rows[index[(min(i, j), max(i, j))]] for j in range(d))
        for i in range(d)
    )
    kernel = ratlin.nullspace(ratlin.transpose(L), ncols=n)
    linear_forms = tuple(tuple(Fraction(v) for v in ratlin.primitive(vec)) for vec in kernel)
    return VeroneseGenerators(L=L, linear_forms=linear_forms, R=R, monomials=monomials)


def steiner_quartic(p) -> float:
    """The degree-4 equation of the four-line model in P^3.

    Accepts Fractions (exact) or floats. Symmetric in the coordinates;
    vanishes on the model, takes the value 1 at unit vectors.
    """
    p = tuple(p)
    if len(p) != 4:
        raise ValidationError("the quartic lives on P^3: need a length-4 vector")
    total = sum(v**4 for v in p)
    total += 6 * sum(p[i] ** 2 * p[j] ** 2 for i, j in itertools.combinations(range(4), 2))
    total -= 4 * sum(p[i] ** 3 * p[j] for i in range(4) for j in range(4) if i != j)
    total += 4 * sum(
        p[i] ** 2 * p[j] * p[k]
        for i in range(4)
        for j, k in itertools.combinations([t for t in range(4) if t != i], 2)
    )
    total -= 40 * p[0] * p[1] * p[2] * p[3]
    return total


def minor_space_dimension(d: int) -> int:
    """Rank of the span of all 2x2 minors of a symmetric d x d matrix.

    The minors' coefficient rows over the quadratic monomials in the matrix
    entries go through the exact rank of :mod:`.ratlin`. The result equals
    (d+1) d^2 (d-1) / 12.
    """
    if d < 2:
        raise ValidationError("need d >= 2")
    var = {}
    for i in range(d):
        for j in range(i, d):
            var[(i, j)] = var[(j, i)] = (i, j)
    rows = []
    for i, k in itertools.combinations(range(d), 2):
        for j, l in itertools.combinations(range(d), 2):
            row = {}
            for sign, pair in ((1, (var[(i, j)], var[(k, l)])), (-1, (var[(i, l)], var[(k, j)]))):
                monomial = tuple(sorted(pair))
                row[monomial] = row.get(monomial, 0) + sign
            rows.append(row)
    monomials = sorted({m for row in rows for m in row})
    rank = ratlin.rank([[row.get(m, 0) for m in monomials] for row in rows])
    expected = (d + 1) * d**2 * (d - 1) // 12
    if rank != expected:
        raise AssertionError(f"minor-space rank {rank} != closed form {expected}")
    return rank


@dataclass(frozen=True)
class SingularSubspace:
    """Partition (I, J) of the states with the subspace ker(B A_{I,J})."""

    I: frozenset
    J: frozenset
    basis: tuple

    @property
    def projective_dimension(self) -> int:
        return len(self.basis) - 1


def singular_subspaces(model: SquaredLinearModel) -> list:
    """Subspaces where the squaring parametrization is non-injective.

    One subspace for each unordered partition I | J of the states with
    |I|, |J| <= d-1 and ker(B A_{I,J}) nontrivial; empty when n > 2d-2.
    Sign-flipping the forms indexed by J maps each subspace point to a
    different parameter with the same probability vector.
    """
    arr = model.arr
    n, d = arr.n, arr.d
    if arr.rank() != d:
        raise RankDeficient("singular subspaces need an essential arrangement")
    if n > 2 * d - 2:
        return []
    out = []
    for size in range(n - (d - 1), d):
        for J in itertools.combinations(range(n), size):
            Jset = frozenset(J)
            if 0 in Jset:
                continue  # fix 0 in I to pick one representative of (I,J) ~ (J,I)
            rows = tuple(
                tuple(-v for v in row) if i in Jset else row
                for i, row in enumerate(arr.A)
            )
            product = ratlin.matmul(model.B.B, rows)
            kernel = ratlin.nullspace(product, ncols=d)
            if kernel:
                out.append(
                    SingularSubspace(
                        I=frozenset(range(n)) - Jset, J=Jset, basis=kernel
                    )
                )
    out.sort(key=lambda s: tuple(sorted(s.J)))
    return out


def noninjectivity_witness(subspace: SingularSubspace, model: SquaredLinearModel):
    """Exact pair (x, x') with x != +-x' but identical probability vectors.

    x is taken on the subspace; x' solves A x' = A_{I,J} x, which exists
    because B A_{I,J} x = 0 puts A_{I,J} x in the image of A.
    """
    arr = model.arr
    flipped = tuple(
        tuple(-v for v in row) if i in subspace.J else row
        for i, row in enumerate(arr.A)
    )
    for weights in itertools.chain(
        [(1,) * len(subspace.basis)],
        itertools.product((1, 2, 3), repeat=len(subspace.basis)),
    ):
        x = tuple(
            sum(Fraction(w) * b[k] for w, b in zip(weights, subspace.basis))
            for k in range(arr.d)
        )
        if ratlin.is_zero(x):
            continue
        (xp,) = parameters_of(model, [ratlin.matvec(flipped, x)])
        if ratlin.primitive(x) != ratlin.primitive(xp):
            return x, xp
    raise ValidationError("no non-injectivity witness found on this subspace")
