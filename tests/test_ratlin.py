"""Differential tests: ratlin's integer Gauss-Jordan pass against the Fraction oracle.

Ranks, kernel bases (with the 1-in-the-free-column convention),
solutions, determinants and inverses are unique, so the integer kernel must
return exactly what the ``Fraction`` loops in tests/ratlin_oracle.py return.
"""

import random
from fractions import Fraction

import pytest

import ratlin_oracle as oracle
from sqlinear import ratlin
from sqlinear.arrangement import Arrangement
from sqlinear.dpp import DPPModel, reduced_points
from sqlinear.errors import DegenerateLeadingBlock, RankDeficient
from sqlinear.model import make_model, quadric_monomials, squared_form_row, veronese_generators


def random_entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "integral":
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def random_matrix(rng, nrows, ncols, kind):
    """Random rows with zero, repeated, negated and dependent rows mixed in."""
    rows = []
    while len(rows) < nrows:
        roll = rng.random()
        if roll < 0.08:
            row = [0] * ncols if kind == "int" else [Fraction(0)] * ncols
        elif rows and roll < 0.2:
            row = list(rng.choice(rows))
        elif rows and roll < 0.3:
            row = [-v for v in rng.choice(rows)]
        elif len(rows) >= 2 and roll < 0.45:
            a, b = rng.sample(rows, 2)
            ca, cb = random_entry(rng, kind), random_entry(rng, kind)
            row = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            row = [random_entry(rng, kind) for _ in range(ncols)]
        rows.append(tuple(row))
    return rows


def as_fractions(rows):
    return [tuple(Fraction(v) for v in row) for row in rows]


def matrices(seed, count, square=False):
    rng = random.Random(seed)
    for t in range(count):
        kind = ("int", "integral", "rational")[t % 3]
        ncols = rng.randint(1, 7)
        nrows = ncols if square else rng.randint(1, 7)
        yield kind, random_matrix(rng, nrows, ncols, kind)


def test_empty_and_one_by_one():
    assert ratlin.rank([]) == oracle.rank([]) == 0
    assert ratlin.nullspace([], ncols=2) == oracle.nullspace([], ncols=2)
    assert ratlin.solve([], []) == oracle.solve([], []) == ()
    assert ratlin.det([]) == oracle.det([]) == 1
    assert ratlin.inverse([]) == oracle.inverse([]) == ()
    for value in (Fraction(0), Fraction(3), Fraction(-2, 7)):
        rows = [(value,)]
        assert ratlin.rank(rows) == oracle.rank(rows)
        assert ratlin.nullspace(rows) == oracle.nullspace(rows)
        assert ratlin.solve(rows, [Fraction(5)]) == oracle.solve(rows, [Fraction(5)])
        assert ratlin.det(rows) == oracle.det(rows) == value
        assert ratlin.inverse(rows) == oracle.inverse(rows)


def test_rref_rank_nullspace_match_oracle():
    for kind, rows in matrices(20251018, 600):
        exact = as_fractions(rows)
        assert ratlin.rank(rows) == oracle.rank(exact), (kind, rows)
        assert ratlin.nullspace(rows) == oracle.nullspace(exact)


def test_square_kernels_match_oracle():
    singular = 0
    rng = random.Random(7)
    for kind, rows in matrices(20251019, 400, square=True):
        exact = as_fractions(rows)
        rhs = [random_entry(rng, kind) for _ in rows]
        want = oracle.det(exact)
        singular += want == 0
        assert ratlin.det(rows) == want, (kind, rows)
        assert ratlin.solve(rows, rhs) == oracle.solve(exact, [Fraction(v) for v in rhs])
        assert ratlin.inverse(rows) == oracle.inverse(exact)
    assert 50 < singular < 350  # both branches are exercised


def test_singular_square_matrices():
    rows = as_fractions([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert ratlin.det(rows) == 0
    assert ratlin.solve(rows, [1, 2, 3]) is None
    assert ratlin.inverse(rows) is None
    assert ratlin.inverse([[0]]) is None


def test_row_update_clears_the_column_and_divides_the_content():
    row, g = ratlin.row_update(4, [2, 6, 8], 2, [4, 0, 2])
    assert (row, g) == ([0, 6, 7], 4)  # 4*(2,6,8) - 2*(4,0,2) = (0,24,28)
    assert ratlin.row_update(1, [1, 2], 1, [1, 2]) == ([0, 0], 0)


def test_independent_rows_match_oracle():
    for _, rows in matrices(20251020, 300):
        exact = as_fractions(rows)
        for count in range(0, len(rows[0]) + 2):
            assert ratlin.independent_rows(rows, count) == oracle.independent_rows(exact, count)


@pytest.mark.parametrize(
    "rows, count, chosen",
    [
        ([(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 1, 2)], 2, [0, 2]),
        ([(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 1, 2)], 3, None),
        ([(0, 0), (0, 5), (1, 0)], 1, [1]),
        ([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1), (0, Fraction(2, 7))], 2, [0, 2]),
        ([], 0, []),
        ([], 1, None),
    ],
    ids=["rank-deficient", "count-above-rank", "zero-row", "rational", "empty", "empty-count-above-rank"],
)
def test_independent_rows_cases(rows, count, chosen):
    assert ratlin.independent_rows(rows, count) == chosen
    assert oracle.independent_rows(as_fractions(rows), count) == chosen


def old_leading_permutation(L, N):
    """The row order model._repair_permutation returned."""
    chosen = oracle.independent_rows(as_fractions(L), N)
    return None if chosen is None else tuple(chosen + [i for i in range(len(L)) if i not in chosen])


def old_column_permutation(Theta_fixed, k, n):
    """The column order dpp._repair_columns returned (trailing columns first)."""
    columns = [tuple(row[c] for row in Theta_fixed) for c in reversed(range(n))]
    chosen = sorted(n - 1 - i for i in oracle.independent_rows(as_fractions(columns), k - 1))
    return tuple([c for c in range(n) if c not in chosen] + chosen)


@pytest.mark.parametrize(
    "A, permutation",
    [  # recorded from the greedy picker before it moved to IntEchelon
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], (0, 1, 2, 4, 5, 6, 3)),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [1, 2, 0], [0, 0, 1]], None),
        ([[1, 2], [2, 4], [-1, -2], [1, 0], [0, 1]], (0, 3, 4, 1, 2)),
        ([[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], (0, 2, 3, 4, 5, 6, 1, 7)),
    ],
)
def test_degenerate_leading_block_permutation(A, permutation):
    with pytest.raises(DegenerateLeadingBlock) as err:
        veronese_generators(make_model(Arrangement(A=A)))
    assert err.value.permutation == permutation


def test_degenerate_leading_block_permutation_matches_oracle():
    rng = random.Random(20251021)
    checked = 0
    for trial in range(60):
        d = 2 + trial % 2
        N = d * (d + 1) // 2
        # Forms in a hyperplane (or repeated forms for d = 2) up front make the
        # leading squares dependent.
        flat = [(rng.randint(-4, 4), rng.randint(-4, 4)) + (0,) * (d - 2) for _ in range(N - 1 + d)]
        if d == 2:
            flat[1] = tuple(2 * v for v in flat[0])
        rest = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        rows = [row for row in flat + rest if any(row)]
        try:
            model = make_model(Arrangement(A=rows))
        except RankDeficient:
            continue  # not essential
        monomials = quadric_monomials(d)
        L = [squared_form_row(row, monomials) for row in model.arr.A]
        if len(L) < N or oracle.rank(as_fractions(L[:N])) == N:
            continue
        with pytest.raises(DegenerateLeadingBlock) as err:
            veronese_generators(model)
        assert err.value.permutation == old_leading_permutation(L, N)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize(
    "Theta_fixed, k, n, permutation",
    [  # recorded from the greedy picker before it moved to IntEchelon
        ([[1, 0, 2, 1, 2, 3], [0, 1, 1, 1, 1, 1], [2, 1, 0, 1, 2, 3]], 4, 6, (0, 1, 3, 2, 4, 5)),
        ([[1, 2, 3, 1, 2], [2, -1, 4, 2, 4]], 3, 5, (0, 1, 3, 2, 4)),
        ([[1, 2, 0, 0, 0], [3, 1, 0, 0, 0]], 3, 5, (2, 3, 4, 0, 1)),
        ([[1, 2, 3, 4, 0, 0], [0, 1, 0, 2, 0, 0], [5, 1, 1, 1, 1, 2]], 4, 6, (0, 1, 4, 2, 3, 5)),
    ],
)
def test_column_permutation(Theta_fixed, k, n, permutation):
    assert reduced_points(DPPModel(Theta_fixed, k, n))[0] == permutation


def test_column_permutation_matches_oracle():
    rng = random.Random(20251022)
    checked = 0
    for trial in range(80):
        k = rng.randint(3, 5)
        n = k + rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k - 1)]
        for row in rows:  # last column = a combination of the other trailing ones
            row[-1] = 2 * row[-2] - row[n - k + 1] if k > 3 else 3 * row[-2]
        if oracle.rank(as_fractions(rows)) < k - 1:
            continue
        perm, reduced = reduced_points(DPPModel(rows, k, n))
        assert perm == old_column_permutation(rows, k, n)
        m = n - k + 1
        assert [list(row[m:]) for row in reduced] == [[int(i == j) for j in range(k - 1)] for i in range(k - 1)]
        checked += 1
    assert checked > 40
