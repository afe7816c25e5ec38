import itertools
from fractions import Fraction

import numpy as np
import pytest

from sqlinear import ratlin
from sqlinear.arrangement import enumerate_regions, ml_degree
from sqlinear.dpp import (
    DPPModel,
    dpp_ml_degree_l2,
    dpp_probabilities,
    linear_projection_arrangement,
    reduced_points,
)
from sqlinear.errors import RankDeficient, ValidationError


def hyperplane_through(points, subset):
    """Primitive normal of the projective hyperplane spanned by the points:
    the kernel of the matrix they form as rows."""
    kernel = ratlin.nullspace([points[i] for i in subset], ncols=len(points[0]))
    assert len(kernel) == 1, f"points {subset} do not span a hyperplane"
    return ratlin.primitive(kernel[0])


def configuration(reduced):
    """The n points [I | -A1^T] of the reduced fixed block [A1 | I], in P^(n-k):
    their (n-k)-subsets span the discriminantal hyperplanes."""
    m = len(reduced[0]) - len(reduced)
    unit = [tuple(Fraction(int(c == r)) for r in range(m)) for c in range(m)]
    return unit + [tuple(-v for v in row[:m]) for row in reduced]


def random_fixed(rows, n, rng):
    while True:
        matrix = tuple(
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(rows)
        )
        if ratlin.rank(matrix) == rows:
            return matrix


class TestDppProbabilities:
    def test_braid_realization(self, rng):
        n = 5
        theta = rng.normal(size=n)
        dist = dpp_probabilities(np.vstack([np.ones(n), theta]))
        raw = np.array(
            [(theta[i] - theta[j]) ** 2 for i, j in itertools.combinations(range(n), 2)]
        )
        assert np.abs(dist.probs - raw / raw.sum()).max() <= 1e-12

    def test_single_state_when_k_equals_n(self, rng):
        Theta = rng.normal(size=(3, 3))
        dist = dpp_probabilities(Theta)
        assert dist.states == ((0, 1, 2),)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_against_bruteforce_minors(self, rng):
        Theta = rng.normal(size=(2, 4))
        dist = dpp_probabilities(Theta)
        dets = {}
        for sigma in itertools.combinations(range(4), 2):
            a, b = sigma
            dets[sigma] = Theta[0, a] * Theta[1, b] - Theta[0, b] * Theta[1, a]
        total = sum(v**2 for v in dets.values())
        for sigma, value in dets.items():
            assert dist.probs[dist.states.index(sigma)] == pytest.approx(value**2 / total, abs=1e-13)

    def test_cauchy_binet_normalization(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, k + 5))
            Theta = rng.normal(size=(k, n))
            dist = dpp_probabilities(Theta)
            assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            dpp_probabilities(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))


class TestLinearProjectionArrangement:
    def test_braid_pattern(self):
        n = 5
        dpp = DPPModel(Theta_fixed=((1,) * n,), k=2, n=n)
        disc = linear_projection_arrangement(dpp)
        forms = {ratlin.primitive(row) for row in disc.arrangement.A}
        expected = set()
        for i, j in itertools.combinations(range(n), 2):
            vec = [0] * (n - 1)
            if i < n - 1:
                vec[i] += 1
            if j < n - 1:
                vec[j] -= 1
            expected.add(ratlin.primitive(vec))
        assert forms == expected

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (6, 4)])
    def test_hyperplane_count_and_dimension(self, n, k, pyrng):
        dpp = DPPModel(Theta_fixed=random_fixed(k - 1, n, pyrng), k=k, n=n)
        disc = linear_projection_arrangement(dpp)
        from math import comb

        assert disc.arrangement.n == comb(n, k)
        assert disc.arrangement.d == n - k + 1
        assert len(configuration(reduced_points(dpp)[1])) == n

    def test_forms_span_point_subsets(self, pyrng):
        n, k = 5, 3
        dpp = DPPModel(Theta_fixed=random_fixed(k - 1, n, pyrng), k=k, n=n)
        disc = linear_projection_arrangement(dpp)
        perm, reduced = reduced_points(dpp)
        points = configuration(reduced)
        for row, sigma in zip(disc.arrangement.A, dpp.states):
            complement = tuple(
                sorted(perm.index(c) for c in range(n) if c not in sigma)
            )
            normal = hyperplane_through(points, complement)
            assert normal in (
                ratlin.primitive(row),
                ratlin.primitive(ratlin.scale(row, Fraction(-1))),
            )

    def test_probabilities_reproduced_by_squared_model(self, pyrng, rng):
        n, k = 5, 3
        dpp = DPPModel(Theta_fixed=random_fixed(k - 1, n, pyrng), k=k, n=n)
        disc = linear_projection_arrangement(dpp)
        perm, reduced = reduced_points(dpp)
        m = n - k + 1
        A1 = np.array([[float(reduced[r][c]) for c in range(m)] for r in range(k - 1)])
        for _ in range(5):
            theta = rng.normal(size=n)
            theta_perm = theta[list(perm)]
            Theta = np.vstack(
                [[[float(v) for v in row] for row in dpp.Theta_fixed], theta]
            )
            dist = dpp_probabilities(Theta)
            t_red = theta_perm[:m] - theta_perm[m:] @ A1
            forms = np.array(
                [[float(v) for v in row] for row in disc.arrangement.A]
            )
            values = (forms @ t_red) ** 2
            values /= values.sum()
            assert np.abs(values - dist.probs).max() <= 1e-10

    def test_column_permutation_reported(self):
        # trailing 2x2 block of the fixed rows is singular
        fixed = ((1, 0, 2, 1, 1), (0, 1, 3, 2, 2))
        dpp = DPPModel(Theta_fixed=fixed, k=3, n=5)
        disc = linear_projection_arrangement(dpp)
        assert reduced_points(dpp)[0] != tuple(range(5))
        from math import comb

        assert disc.arrangement.n == comb(5, 3)
        assert all(any(v != 0 for v in row) for row in disc.arrangement.A)

    def test_dependent_fixed_rows_rejected(self):
        with pytest.raises(RankDeficient):
            DPPModel(Theta_fixed=((1, 2, 3, 4), (2, 4, 6, 8)), k=3, n=4)


class TestMlDegreeFormula:
    @pytest.mark.parametrize("n, expected", [(4, 12), (5, 31), (6, 70), (7, 141)])
    def test_values(self, n, expected):
        assert dpp_ml_degree_l2(n) == expected

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            dpp_ml_degree_l2(3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_region_enumeration(self, n, pyrng):
        k = n - 2
        dpp = DPPModel(Theta_fixed=random_fixed(k - 1, n, pyrng), k=k, n=n)
        disc = linear_projection_arrangement(dpp)
        assert ml_degree(disc.arrangement) == dpp_ml_degree_l2(n)
        assert len(enumerate_regions(disc.arrangement)) == dpp_ml_degree_l2(n)
