import itertools
import math
from fractions import Fraction

import newton_oracle as oracle
import numpy as np
import pytest

from sqlinear import ratlin
from sqlinear.arrangement import enumerate_regions
from sqlinear.catalog import random_arrangement
from conftest import (
    exact_probabilities,
    float_probabilities,
    minor_space_rank,
    non_essential_model,
    noninjectivity_witness,
    r_matrix_at,
    steiner_quartic,
)
from sqlinear.errors import DegenerateLeadingBlock, NoConvergence, RankDeficient, ValidationError, ZeroPoint
from sqlinear.mle import Likelihood, _solve_batch, likelihood_matrix, normalize_parameter
from sqlinear.model import (
    make_model,
    minor_space_dimension,
    quadric_monomials,
    singular_subspaces,
    squared_form_row,
    veronese_generators,
)

BRAID4_INDEX = {pair: k for k, pair in enumerate(itertools.combinations(range(1, 5), 2))}


class TestEvaluate:
    def test_steiner_direct_substitution(self, steiner):
        p = exact_probabilities(steiner, (1, 1, 1))
        assert p == (Fraction(1, 12), Fraction(1, 12), Fraction(1, 12), Fraction(3, 4))

    def test_positive_on_witnesses(self, steiner):
        for region in enumerate_regions(steiner.arr):
            assert min(exact_probabilities(steiner, region.witness)) > 0

    def test_braid_substitution(self, braid4):
        x4 = tuple(Fraction(v) for v in ("0.3", "1.1", "2.4", "3.9"))
        x = [v - x4[3] for v in x4[:3]]
        p = exact_probabilities(braid4, x)
        raw = {
            (i, j): (x4[i - 1] - x4[j - 1]) ** 2
            for i, j in itertools.combinations(range(1, 5), 2)
        }
        total = sum(raw.values())
        for pair, value in raw.items():
            assert p[BRAID4_INDEX[pair]] == value / total


def loglik(model, s, X):
    """logL of :class:`Likelihood` at each row of the (k, d) stack X."""
    return Likelihood(model.A_float, s)(np.atleast_2d(X) @ model.A_float.T)


def gradient(model, s, x):
    """The gradient row of :meth:`Likelihood.hessian` at the one point x."""
    return Likelihood(model.A_float, s).hessian((model.A_float @ x)[None, :])[1][0]


class TestLogLikelihood:
    def test_scale_invariance(self, steiner, rng):
        for _ in range(20):
            s = rng.uniform(0.1, 1, size=4)
            x = rng.normal(size=3)
            a, b = loglik(steiner, s, [x, 2.0 * x])
            assert a == pytest.approx(b, abs=1e-12)

    def test_direct_value(self, steiner):
        s = np.full(4, 0.25)
        (value,) = loglik(steiner, s, (1, 1, 1))
        assert value == pytest.approx(
            0.75 * math.log(1 / 12) + 0.25 * math.log(3 / 4), abs=1e-12
        )

    def test_unit_vector_support_restriction(self, steiner, rng):
        for _ in range(10):
            x = rng.normal(size=3)
            p = float_probabilities(steiner, x)
            assert loglik(steiner, (1, 0, 0, 0), x)[0] == pytest.approx(math.log(p[0]), abs=1e-12)

    def test_on_hyperplane_is_minus_infinity(self, steiner):
        # log 0 divides by zero, and BLAS may flag an invalid operation while
        # it sums the infinity; the value is -inf all the same, not NaN.
        with np.errstate(divide="ignore", invalid="ignore"):
            assert loglik(steiner, (1, 1, 1, 1), (0, 1, 1))[0] == -math.inf


class TestGradient:
    def test_finite_differences(self, pyrng, rng):
        step = 1e-6
        checked = 0
        while checked < 100:
            d = pyrng.choice([2, 3, 4])
            n = pyrng.randint(d + 1, d + 3)
            model = make_model(random_arrangement(d, n, pyrng))
            x = rng.normal(size=d)
            if np.abs(model.A_float @ x).min() < 1e-2:
                continue
            s = rng.uniform(0.1, 1.0, size=n)
            g = gradient(model, s, x)
            e = step * np.eye(d)
            ahead, behind = loglik(model, s, np.vstack([x + e, x - e])).reshape(2, d)
            fd = (ahead - behind) / (2 * step)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))
            checked += 1

    def test_euler_identity(self, steiner, rng):
        for _ in range(20):
            x = rng.normal(size=3)
            s = rng.uniform(0.1, 1, size=4)
            g = gradient(steiner, s, x)
            assert abs(g @ x) <= 1e-10 * np.linalg.norm(g)

    def test_zero_point_raises(self, steiner):
        # The float entry points that take a point reject the zero vector, and
        # a solve started from it fails its row.
        with pytest.raises(ZeroPoint):
            likelihood_matrix(steiner, (1, 1, 1, 1), (0, 0, 0))
        with pytest.raises(ZeroPoint):
            normalize_parameter((0, 0, 0))
        region = enumerate_regions(steiner.arr)[0]
        ((outcome,),) = _solve_batch(steiner, [(1, 1, 1, 1)], [region], 1e-10, [[(0, 0, 0)]])
        assert isinstance(outcome, NoConvergence) and "start point" in str(outcome)

    def test_start_on_hyperplane_fails_its_row(self, steiner):
        # (0, 1, 1) zeroes the first form: no region's signs hold there, and
        # the row fails before any gradient is taken, while the others solve.
        regions = enumerate_regions(steiner.arr)[:2]
        ((on, off),) = _solve_batch(steiner, [(1, 1, 1, 1)], regions, 1e-10, [[(0, 1, 1), regions[1]]])
        assert isinstance(on, NoConvergence) and "start point" in str(on)
        assert off.region == regions[1].sign


class TestAgainstScalarOracle:
    """``Likelihood`` evaluates the formulas the Newton batch runs; the
    oracle's scalar copies check its logL, gradient and Hessian."""

    @staticmethod
    def _point_on(row, pyrng):
        """Exact integer point on the hyperplane of ``row``, off the origin."""
        basis = ratlin.nullspace([row])
        while True:
            weights = [pyrng.randint(-3, 3) for _ in basis]
            x = [sum(w * b[k] for w, b in zip(weights, basis)) for k in range(len(row))]
            if any(x):
                return np.array([float(v) for v in ratlin.primitive(x)])

    def test_random_points(self, pyrng, rng):
        on_zero_weight = on_positive_weight = 0
        for trial in range(200):
            d = pyrng.choice([2, 3, 4])
            n = pyrng.randint(d + 1, d + 4)
            model = make_model(random_arrangement(d, n, pyrng))
            s = rng.uniform(0.1, 5.0, size=n)
            s[rng.random(n) < 0.3] = 0.0
            s[0] = max(s[0], 1.0)  # at least one state has positive weight
            x = rng.normal(size=d)
            if trial % 50 == 0:  # on the hyperplane of a zero weight, then of a positive one
                i = pyrng.randrange(1, n)
                s[i] = 0.0 if trial % 100 == 0 else 1.0
                x = self._point_on(model.arr.A[i], pyrng)
            values = model.A_float @ x
            if np.any((values == 0.0) & (s != 0.0)):
                on_positive_weight += 1
                with np.errstate(divide="ignore", invalid="ignore"):  # log 0, and a flag from BLAS
                    (value,) = loglik(model, s, x)
                assert value == oracle.log_likelihood(model, s, x) == -math.inf
                continue
            on_zero_weight += bool(np.any(values == 0.0))
            expected = oracle.log_likelihood(model, s, x)
            g, H = oracle.gradient(model, s, x), oracle.hessian(model, s, x)
            logL, G, batch = Likelihood(model.A_float, s).hessian(values[None, :])
            assert logL[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert np.linalg.norm(G[0] - g) <= 1e-12 * max(1.0, np.linalg.norm(g))
            assert np.linalg.norm(batch[0] - H) <= 1e-12 * max(1.0, np.linalg.norm(H))
        assert on_zero_weight >= 1 and on_positive_weight >= 1


def r_minors_residual(vg, p) -> float:
    """Largest 2x2 minor of R at p, scale-free (p normalized to unit sum)."""
    p = np.asarray(p, dtype=float)
    p = p / p.sum()
    d = len(vg.R)
    R = np.array(
        [[np.dot(np.array(vg.R[i][j], dtype=float), p[: len(vg.R[0][0])]) for j in range(d)] for i in range(d)]
    )
    scale = max(1.0, float(np.abs(R).max()) ** 2)
    worst = 0.0
    for i, k in itertools.combinations(range(d), 2):
        for j, l in itertools.combinations(range(d), 2):
            worst = max(worst, abs(R[i, j] * R[k, l] - R[i, l] * R[k, j]) / scale)
    return worst


def squared_rows(model, gens):
    """The coefficients of each squared form in the monomials of ``gens``."""
    return tuple(squared_form_row(row, gens.monomials) for row in model.arr.A)


class TestVeroneseGenerators:
    def test_conic_d2_n3(self, circle):
        gens = veronese_generators(circle)
        assert squared_rows(circle, gens) == ((1, 0, 0), (0, 0, 1), (1, 2, 1))
        assert gens.linear_forms == ()
        for x in ((2, 3), (-1, 5), (7, 2)):
            p = exact_probabilities(circle, x)
            R = r_matrix_at(gens, p)
            minor = R[0][0] * R[1][1] - R[0][1] * R[1][0]
            assert minor == 0
            assert 4 * p[0] * p[1] == (p[2] - p[0] - p[1]) ** 2

    def test_seven_lines(self, seven_lines):
        gens = veronese_generators(seven_lines)
        # column order (x^2, xy, y^2, xz, yz, z^2): pairs grouped by larger index
        assert quadric_monomials(3) == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))
        L = squared_rows(seven_lines, gens)
        assert L[4] == (1, 4, 4, 6, 12, 9)
        assert L[5] == (1, 10, 25, 14, 70, 49)
        # (x + 11y + 13z)^2 has xz coefficient 26
        assert L[6] == (1, 22, 121, 26, 286, 169)
        assert len(gens.linear_forms) == 1
        assert len(gens.linear_forms) == 7 - ratlin.rank(L)
        for x in ((1, 2, -1), (3, -1, 2)):
            p = exact_probabilities(seven_lines, x)
            assert all(ratlin.dot(f, p) == 0 for f in gens.linear_forms)
            R = r_matrix_at(gens, p)
            for i, k in itertools.combinations(range(3), 2):
                for j, l in itertools.combinations(range(3), 2):
                    assert R[i][j] * R[k][l] - R[i][l] * R[k][j] == 0

    def test_r_matrix_reconstructs_monomials(self, seven_lines):
        # substituting the unnormalized squares into r gives back the
        # quadric monomials of x exactly: R[i][j] at p = L m(x) is x_i x_j
        gens = veronese_generators(seven_lines)
        for x in ((Fraction(1), Fraction(2), Fraction(-3)), (Fraction(5), Fraction(-1), Fraction(2))):
            values = seven_lines.arr.form_values(x)
            p = tuple(v * v for v in values)
            R = r_matrix_at(gens, p)
            for i in range(3):
                for j in range(3):
                    assert R[i][j] == x[i] * x[j]

    def test_numeric_vanishing(self, seven_lines, rng):
        gens = veronese_generators(seven_lines)
        forms = [np.array([float(v) for v in f]) for f in gens.linear_forms]
        forms = [f / np.linalg.norm(f) for f in forms]
        for _ in range(200):
            x = rng.normal(size=3)
            p = float_probabilities(seven_lines, x)
            for f in forms:
                assert abs(f @ p) <= 1e-10
            assert r_minors_residual(gens, p) <= 1e-10

    def test_braid_symmetric_matrix(self, braid4, rng):
        index = BRAID4_INDEX
        for _ in range(100):
            x = rng.normal(size=3)
            p = float_probabilities(braid4, x)
            M = np.empty((3, 3))
            for i in range(1, 4):
                M[i - 1, i - 1] = 2 * p[index[(i, 4)]]
                for j in range(i + 1, 4):
                    value = p[index[(i, 4)]] + p[index[(j, 4)]] - p[index[(i, j)]]
                    M[i - 1, j - 1] = M[j - 1, i - 1] = value
            for rows in itertools.combinations(range(3), 2):
                for cols in itertools.combinations(range(3), 2):
                    minor = (
                        M[rows[0], cols[0]] * M[rows[1], cols[1]]
                        - M[rows[0], cols[1]] * M[rows[1], cols[0]]
                    )
                    assert abs(minor) <= 1e-12

    def test_needs_enough_states(self, steiner):
        with pytest.raises(ValidationError):
            veronese_generators(steiner)  # n = 4 < 6 = N

    def test_degenerate_leading_block_reports_permutation(self):
        # first three squares dependent: x^2, 4x^2, y^2 -> rows 0,1 collide
        from sqlinear.arrangement import Arrangement

        arr = Arrangement(A=((1, 0), (2, 0), (0, 1), (1, 1), (1, 2)))
        model = make_model(arr)
        with pytest.raises(DegenerateLeadingBlock) as info:
            veronese_generators(model)
        perm = info.value.permutation
        assert perm is not None and perm[0] == 0 and 1 not in perm[:3]


class TestSteinerQuartic:
    def test_vanishes_on_model_exactly(self, steiner):
        for x in ((3, -2, 5), (1, 1, 1), (2, -7, 1)):
            p = exact_probabilities(steiner, x)
            assert steiner_quartic(p) == 0

    def test_vanishes_numerically(self, steiner, rng):
        for _ in range(100):
            p = float_probabilities(steiner, rng.normal(size=3))
            assert abs(steiner_quartic(p / p.sum())) <= 1e-10

    def test_unit_vector(self):
        assert steiner_quartic((1, 0, 0, 0)) == 1

    def test_symmetric(self, rng):
        p = tuple(Fraction(k) for k in (3, -1, 4, 7))
        base = steiner_quartic(p)
        for perm in itertools.permutations(range(4)):
            assert steiner_quartic(tuple(p[i] for i in perm)) == base


class TestMinorSpaceDimension:
    @pytest.mark.parametrize("d, expected", [(2, 1), (3, 6), (4, 20), (5, 50), (6, 105)])
    def test_formula(self, d, expected):
        assert minor_space_dimension(d) == minor_space_rank(d) == expected
        assert expected == (d + 1) * d**2 * (d - 1) // 12

    def test_d_below_2_rejected(self):
        with pytest.raises(ValidationError, match="need d >= 2"):
            minor_space_dimension(1)


class TestSingularSubspaces:
    def test_steiner_three_lines(self, steiner):
        subs = singular_subspaces(steiner)
        assert len(subs) == 3
        assert all(s.projective_dimension == 1 for s in subs)

    def test_generic_d4_n6_ten_lines(self, pyrng):
        model = make_model(random_arrangement(4, 6, pyrng))
        subs = singular_subspaces(model)
        assert len(subs) == 10
        assert all(s.projective_dimension == 1 for s in subs)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient, match="^singular subspaces need an essential arrangement$"):
            singular_subspaces(non_essential_model())

    def test_smooth_range_empty(self, pyrng):
        model = make_model(random_arrangement(3, 5, pyrng))
        assert singular_subspaces(model) == []

    def test_noninjectivity_witnesses(self, steiner, pyrng):
        model = make_model(random_arrangement(4, 6, pyrng))
        for sub in singular_subspaces(model) + singular_subspaces(steiner):
            owner = model if len(sub.I) + len(sub.J) == 6 else steiner
            x, xp = noninjectivity_witness(sub, owner)
            assert ratlin.primitive(x) != ratlin.primitive(xp)
            assert exact_probabilities(owner, x) == exact_probabilities(owner, xp)

    def test_injectivity_spot_check(self, pyrng, rng):
        model = make_model(random_arrangement(3, 5, pyrng))  # n > 2d - 2
        regions = enumerate_regions(model.arr)
        points = []
        for _ in range(100):
            region = regions[int(rng.integers(len(regions)))]
            x = np.array([float(v) for v in region.witness])
            x = x + 0.05 * rng.normal(size=3)
            if np.sign(model.A_float @ x).tolist() != [
                float(s) for s in region.sign.signs
            ]:
                continue
            points.append((str(region.sign), float_probabilities(model, x)))
        for (tag_a, pa), (tag_b, pb) in itertools.combinations(points, 2):
            if tag_a != tag_b:
                assert np.linalg.norm(pa - pb) > 1e-6


class TestNormalizeParameter:
    def test_norm_and_sign(self, rng):
        for _ in range(10):
            x = normalize_parameter(rng.normal(size=4))
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            lead = next(v for v in x if abs(v) > 1e-12)
            assert lead > 0
