import itertools
import math
from fractions import Fraction

import newton_oracle as oracle
import numpy as np
import pytest

from sqlinear import ratlin
from sqlinear.arrangement import enumerate_regions
from sqlinear.catalog import braid_pair_index, random_arrangement
from sqlinear.errors import (
    DegenerateLeadingBlock,
    OnHyperplane,
    ValidationError,
    ZeroPoint,
)
from sqlinear.mle import Likelihood, normalize_parameter
from sqlinear.model import (
    evaluate,
    evaluate_exact,
    gradient,
    log_likelihood,
    make_model,
    minor_space_dimension,
    noninjectivity_witness,
    quadric_monomials,
    singular_subspaces,
    steiner_quartic,
    veronese_generators,
)


class TestEvaluate:
    def test_steiner_direct_substitution(self, steiner):
        p = evaluate_exact(steiner, (1, 1, 1))
        assert p == (Fraction(1, 12), Fraction(1, 12), Fraction(1, 12), Fraction(3, 4))

    def test_positive_on_witnesses(self, steiner):
        for region in enumerate_regions(steiner.arr):
            p = evaluate(steiner, [float(v) for v in region.witness])
            assert p.min() > 0

    def test_braid_substitution(self, braid4):
        x4 = (0.3, 1.1, 2.4, 3.9)
        x = np.array(x4[:3]) - x4[3]
        p = evaluate(braid4, x)
        index = braid_pair_index(4)
        raw = {
            (i, j): (x4[i - 1] - x4[j - 1]) ** 2
            for i, j in itertools.combinations(range(1, 5), 2)
        }
        total = sum(raw.values())
        for pair, value in raw.items():
            assert p[index[pair]] == pytest.approx(value / total, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self, steiner, rng):
        for _ in range(50):
            p = evaluate(steiner, rng.normal(size=3))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_zero_point(self, steiner):
        with pytest.raises(ZeroPoint):
            evaluate(steiner, (0, 0, 0))


class TestLogLikelihood:
    def test_scale_invariance(self, steiner, rng):
        for _ in range(20):
            s = rng.uniform(0.1, 1, size=4)
            x = rng.normal(size=3)
            a = log_likelihood(steiner, s, x)
            b = log_likelihood(steiner, s, 2.0 * x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_direct_value(self, steiner):
        s = np.full(4, 0.25)
        value = log_likelihood(steiner, s, (1, 1, 1))
        assert value == pytest.approx(
            0.75 * math.log(1 / 12) + 0.25 * math.log(3 / 4), abs=1e-12
        )

    def test_unit_vector_support_restriction(self, steiner, rng):
        for _ in range(10):
            x = rng.normal(size=3)
            p = evaluate(steiner, x)
            assert log_likelihood(steiner, (1, 0, 0, 0), x) == pytest.approx(
                math.log(p[0]), abs=1e-12
            )

    def test_on_hyperplane_is_minus_infinity(self, steiner):
        assert log_likelihood(steiner, (1, 1, 1, 1), (0, 1, 1)) == -math.inf


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
            fd = np.zeros(d)
            for k in range(d):
                e = np.zeros(d)
                e[k] = step
                fd[k] = (
                    log_likelihood(model, s, x + e) - log_likelihood(model, s, x - e)
                ) / (2 * step)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))
            checked += 1

    def test_euler_identity(self, steiner, rng):
        for _ in range(20):
            x = rng.normal(size=3)
            s = rng.uniform(0.1, 1, size=4)
            g = gradient(steiner, s, x)
            assert abs(g @ x) <= 1e-10 * np.linalg.norm(g)

    def test_on_hyperplane_raises(self, steiner):
        with pytest.raises(OnHyperplane):
            gradient(steiner, (1, 1, 1, 1), (0, 1, 1))

    def test_zero_point_raises(self, steiner):
        for evaluation in (log_likelihood, gradient):
            with pytest.raises(ZeroPoint):
                evaluation(steiner, (1, 1, 1, 1), (0, 0, 0))


class TestAgainstScalarOracle:
    """The public one-point functions and ``Likelihood.hessian`` evaluate the
    formulas the Newton batch runs; the oracle's scalar copies check them."""

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
                assert log_likelihood(model, s, x) == oracle.log_likelihood(model, s, x) == -math.inf
                with pytest.raises(OnHyperplane):
                    gradient(model, s, x)
                continue
            on_zero_weight += bool(np.any(values == 0.0))
            expected = oracle.log_likelihood(model, s, x)
            assert log_likelihood(model, s, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)
            g = oracle.gradient(model, s, x)
            assert np.linalg.norm(gradient(model, s, x) - g) <= 1e-12 * max(1.0, np.linalg.norm(g))
            H = oracle.hessian(model, s, x)
            logL, G, batch = Likelihood(model.A_float, s).hessian(x[None, :] @ model.A_float.T)
            assert logL[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert np.linalg.norm(batch[0] - H) <= 1e-12 * max(1.0, np.linalg.norm(H))
            assert np.linalg.norm(G[0] - g) <= 1e-12 * max(1.0, np.linalg.norm(g))
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


class TestVeroneseGenerators:
    def test_conic_d2_n3(self, circle):
        gens = veronese_generators(circle)
        assert gens.L == ((1, 0, 0), (0, 0, 1), (1, 2, 1))
        assert gens.linear_forms == ()
        for x in ((2, 3), (-1, 5), (7, 2)):
            p = evaluate_exact(circle, x)
            R = gens.r_matrix_at(p)
            minor = R[0][0] * R[1][1] - R[0][1] * R[1][0]
            assert minor == 0
            assert 4 * p[0] * p[1] == (p[2] - p[0] - p[1]) ** 2

    def test_seven_lines(self, seven_lines):
        gens = veronese_generators(seven_lines)
        # column order (x^2, xy, y^2, xz, yz, z^2): pairs grouped by larger index
        assert quadric_monomials(3) == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))
        assert gens.L[4] == (1, 4, 4, 6, 12, 9)
        assert gens.L[5] == (1, 10, 25, 14, 70, 49)
        # (x + 11y + 13z)^2 has xz coefficient 26
        assert gens.L[6] == (1, 22, 121, 26, 286, 169)
        assert len(gens.linear_forms) == 1
        assert len(gens.linear_forms) == 7 - ratlin.rank(gens.L)
        for x in ((1, 2, -1), (3, -1, 2)):
            p = evaluate_exact(seven_lines, x)
            assert all(ratlin.dot(f, p) == 0 for f in gens.linear_forms)
            R = gens.r_matrix_at(p)
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
            R = gens.r_matrix_at(p)
            for i in range(3):
                for j in range(3):
                    assert R[i][j] == x[i] * x[j]

    def test_numeric_vanishing(self, seven_lines, rng):
        gens = veronese_generators(seven_lines)
        forms = [np.array([float(v) for v in f]) for f in gens.linear_forms]
        forms = [f / np.linalg.norm(f) for f in forms]
        for _ in range(200):
            x = rng.normal(size=3)
            p = evaluate(seven_lines, x)
            for f in forms:
                assert abs(f @ p) <= 1e-10
            assert r_minors_residual(gens, p) <= 1e-10

    def test_braid_symmetric_matrix(self, braid4, rng):
        index = braid_pair_index(4)
        for _ in range(100):
            x = rng.normal(size=3)
            p = evaluate(braid4, x)
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
            p = evaluate_exact(steiner, x)
            assert steiner_quartic(p) == 0

    def test_vanishes_numerically(self, steiner, rng):
        for _ in range(100):
            p = evaluate(steiner, rng.normal(size=3))
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
        assert minor_space_dimension(d) == expected
        assert expected == (d + 1) * d**2 * (d - 1) // 12


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

    def test_smooth_range_empty(self, pyrng):
        model = make_model(random_arrangement(3, 5, pyrng))
        assert singular_subspaces(model) == []

    def test_noninjectivity_witnesses(self, steiner, pyrng):
        model = make_model(random_arrangement(4, 6, pyrng))
        for sub in singular_subspaces(model) + singular_subspaces(steiner):
            owner = model if len(sub.I) + len(sub.J) == 6 else steiner
            x, xp = noninjectivity_witness(sub, owner)
            assert ratlin.primitive(x) != ratlin.primitive(xp)
            assert evaluate_exact(owner, x) == evaluate_exact(owner, xp)

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
            points.append((str(region.sign), evaluate(model, x)))
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
