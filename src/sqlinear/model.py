"""The squared linear model: implicit generators and the singular locus.

State probabilities are p_i(x) = l_i(x)^2 / q(x) with q the sum of all
squared forms. The constructions here are exact rational; the float
log-likelihood, its gradient and its Hessian are :class:`.mle.Likelihood`,
which the Newton solver runs, and ``A_float`` imports numpy when read.
"""

from __future__ import annotations

import itertools

from . import ratlin
from .arrangement import Arrangement, KernelComplement, Record, kernel_complement
from .errors import DegenerateLeadingBlock, RankDeficient, ValidationError


class SquaredLinearModel(Record):
    __slots__ = ("arr", "B")

    def __init__(self, arr: Arrangement, B: KernelComplement):
        if not arr.n > arr.d > 1:
            raise RankDeficient(f"model needs n > d > 1, got n = {arr.n}, d = {arr.d}")
        super().__init__(arr, B)

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


class VeroneseGenerators(Record):
    """Implicit generators for n >= d(d+1)/2: linear forms plus 2x2 minors.

    ``linear_forms`` is a basis (primitive integer vectors of length n) of
    the linear part of the ideal; ``R`` is the d x d symmetric matrix whose
    (i, j) entry is a linear form in p_1..p_N, stored as its length-N
    coefficient vector. R has rank one on the model, so all its 2x2 minors
    vanish there.
    """

    __slots__ = ("linear_forms", "R", "monomials")


def veronese_generators(model: SquaredLinearModel) -> VeroneseGenerators:
    """Generators of the implicit ideal in the large-n regime.

    Needs n >= N = d(d+1)/2 and the squares of the first N forms linearly
    independent; otherwise a row permutation that repairs the leading block
    is reported rather than silently applied, so row labels stay meaningful.
    The error's message names N and that row order, 1-based, or says that no
    order repairs it; the error carries the order as ``permutation``.
    """
    d, n, N = model.d, model.n, model.N
    if n < N:
        raise ValidationError(f"need n >= d(d+1)/2 = {N}, got n = {n}")
    monomials = quadric_monomials(d)
    L = tuple(squared_form_row(row, monomials) for row in model.arr.A)
    inverse_rows = ratlin.inverse(L[:N])
    if inverse_rows is None:
        perm = ratlin.independent_rows(L, N)
        message = f"squares of the first N = {N} forms are linearly dependent"
        if perm is None:
            raise DegenerateLeadingBlock(f"{message}, and no row order makes them independent")
        perm = tuple(perm + [i for i in range(n) if i not in perm])
        raise DegenerateLeadingBlock(
            f"{message}; reordering the rows as {', '.join(str(i + 1) for i in perm)} makes them independent",
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
    linear_forms = tuple(ratlin.primitive(vec) for vec in kernel)
    return VeroneseGenerators(linear_forms=linear_forms, R=R, monomials=monomials)


def minor_space_dimension(d: int) -> int:
    """Dimension of the span of all 2x2 minors of a symmetric d x d matrix,
    (d+1) d^2 (d-1) / 12."""
    if d < 2:
        raise ValidationError("need d >= 2")
    return (d + 1) * d**2 * (d - 1) // 12


class SingularSubspace(Record):
    """Partition (I, J) of the states with the subspace ker(B A_{I,J})."""

    __slots__ = ("I", "J", "basis")

    @property
    def projective_dimension(self) -> int:
        return len(self.basis) - 1


def singular_subspaces(model: SquaredLinearModel) -> list:
    """Subspaces where the squaring parametrization is non-injective.

    One subspace for each unordered partition I | J of the states with
    |I|, |J| <= d-1 and ker(B A_{I,J}) nontrivial; empty when n > 2d-2.
    Sign-flipping the forms indexed by J maps each subspace point to a
    different parameter with the same probability vector. As B A = 0,
    flipping the rows J of A gives B A_{I,J} = -2 B_{:,J} A_J, whose kernel
    is the subspace; J leaves out state 0, one of (I,J) ~ (J,I).
    """
    arr = model.arr
    n, d = arr.n, arr.d
    if arr.rank() != d:
        raise RankDeficient("singular subspaces need an essential arrangement")
    if n > 2 * d - 2:
        return []
    out = []
    for size in range(n - (d - 1), d):
        for J in itertools.combinations(range(1, n), size):
            columns = tuple(tuple(row[j] for j in J) for row in model.B.B)
            kernel = ratlin.nullspace(ratlin.matmul(columns, [arr.A[j] for j in J]), ncols=d)
            if kernel:
                out.append(
                    SingularSubspace(
                        I=frozenset(range(n)) - frozenset(J), J=frozenset(J), basis=kernel
                    )
                )
    out.sort(key=lambda s: tuple(sorted(s.J)))
    return out
