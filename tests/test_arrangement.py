import itertools
from fractions import Fraction

import pytest
import sympy

import ratlin_oracle
from sqlinear import ratlin
from sqlinear.arrangement import (
    Arrangement,
    SignVector,
    characteristic_polynomial,
    enumerate_regions,
    flats,
    generic_ml_degree,
    kernel_complement,
    ml_degree,
    snc_check,
)
from sqlinear.catalog import random_arrangement
from sqlinear.errors import BudgetExceeded, ParallelRows, RankDeficient
from sqlinear.geometry import chamber_arrangement


def row_span(rows):
    reduced, _ = ratlin_oracle.rref(ratlin.frac_matrix(rows))
    return tuple(r for r in reduced if not ratlin.is_zero(r))


class TestKernelComplement:
    def test_steiner_matches_textbook_row(self, steiner):
        B = kernel_complement(steiner.arr)
        assert B.B == ((1, 1, 1, -1),)

    def test_identity_augmented_unique_up_to_scale(self):
        rows = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        rows.append((1, 1, 1, 1))
        B = kernel_complement(Arrangement(A=tuple(rows)))
        assert len(B.B) == 1
        assert ratlin.primitive(B.B[0]) == (1, 1, 1, 1, -1)

    def test_four_points_span(self, four_points):
        B = kernel_complement(four_points.arr)
        assert row_span(B.B) == row_span([(1, -2, 1, 0), (1, -1, 0, 1)])
        assert B.B == ((1, -2, 1, 0), (1, -1, 0, 1))

    def test_exact_annihilation_and_rank(self, pyrng):
        arr = random_arrangement(3, 7, pyrng)
        B = kernel_complement(arr)
        assert ratlin.rank(B.B) == arr.n - arr.d
        product = ratlin.matmul(B.B, arr.A)
        assert all(ratlin.is_zero(row) for row in product)

    def test_rank_deficient_rejected(self):
        arr = Arrangement(A=((1, 0), (2, 0), (3, 0)))
        with pytest.raises(RankDeficient):
            kernel_complement(arr)


def subset_rank_charpoly(arr):
    """Independent oracle: direct sum over all subsets with sympy ranks."""
    d = arr.d
    coeffs = [0] * (d + 1)
    rows = [list(map(sympy.Rational, row)) for row in arr.A]
    for size in range(arr.n + 1):
        for subset in itertools.combinations(range(arr.n), size):
            r = sympy.Matrix([rows[i] for i in subset]).rank() if subset else 0
            coeffs[r] += (-1) ** size
    return tuple(coeffs)


class TestCharacteristicPolynomial:
    def test_steiner(self, steiner):
        chi = characteristic_polynomial(steiner.arr)
        assert chi.coeffs == (1, -4, 6, -3)
        assert chi.coeffs == subset_rank_charpoly(steiner.arr)

    def test_braid_factors(self, braid4):
        chi = characteristic_polynomial(braid4.arr)
        t = sympy.Symbol("t")
        expected = sympy.Poly((t - 1) * (t - 2) * (t - 3), t).all_coeffs()
        assert list(chi.coeffs) == [int(c) for c in expected]

    def test_boolean_two_lines(self):
        arr = Arrangement(A=((1, 0), (0, 1)))
        assert characteristic_polynomial(arr).coeffs == (1, -2, 1)

    def test_invariance_under_scaling_and_permutation(self, pyrng):
        arr = random_arrangement(3, 6, pyrng)
        chi = characteristic_polynomial(arr)
        scaled = tuple(
            ratlin.scale(row, Fraction(pyrng.choice([1, 2, -3, 5]), pyrng.choice([1, 2])))
            for row in arr.A
        )
        order = list(range(arr.n))
        pyrng.shuffle(order)
        permuted = Arrangement(A=tuple(scaled[i] for i in order))
        assert characteristic_polynomial(permuted).coeffs == chi.coeffs

    def test_matches_subset_oracle_on_degenerate_arrangements(self, pyrng):
        # Repeated, parallel and dependent rows reach full rank early, where
        # the walk cuts its branch; non-essential ones never do.
        for trial in range(8):
            d = 2 + trial % 3
            rows = [tuple(pyrng.randint(-3, 3) for _ in range(d)) for _ in range(3)]
            while len(rows) < 6:
                a, b = pyrng.sample(rows, 2)
                rows.append(tuple(pyrng.choice([1, 2, -1]) * x + pyrng.randint(-1, 1) * y for x, y in zip(a, b)))
            if trial == 7:
                rows = [row[:-1] + (0,) for row in rows]
            rows = [row for row in rows if any(row)]
            arr = Arrangement(A=rows)
            assert characteristic_polynomial(arr).coeffs == subset_rank_charpoly(arr)

    def test_budget(self):
        arr = Arrangement(A=tuple((1, i) for i in range(25)))
        with pytest.raises(BudgetExceeded):
            characteristic_polynomial(arr)


class TestMlDegree:
    def test_examples(self, steiner, braid4):
        assert ml_degree(steiner.arr) == 7
        assert ml_degree(braid4.arr) == 12

    def test_generic_d3_n5_matches_region_oracle(self, pyrng):
        arr = random_arrangement(3, 5, pyrng)
        assert ml_degree(arr) == 11
        assert len(enumerate_regions(arr)) == 11


class TestGenericMlDegree:
    @pytest.mark.parametrize(
        "d, n, expected", [(3, 4, 7), (2, 3, 3), (3, 6, 16), (4, 7, 42)]
    )
    def test_values(self, d, n, expected):
        assert generic_ml_degree(d, n) == expected

    def test_bad_input(self):
        with pytest.raises(RankDeficient):
            generic_ml_degree(1, 3)
        with pytest.raises(RankDeficient):
            generic_ml_degree(3, 3)


class TestEnumerateRegions:
    def test_steiner(self, steiner):
        regions = enumerate_regions(steiner.arr)
        assert len(regions) == 7
        keys = [r.key() for r in regions]
        assert keys == sorted(keys)

    def test_three_points_on_line(self, circle):
        assert len(enumerate_regions(circle.arr)) == 3

    def test_witnesses_are_exact_and_normalized(self, steiner):
        for region in enumerate_regions(steiner.arr):
            values = steiner.arr.form_values(region.witness)
            for value, sign in zip(values, region.sign.signs):
                assert value != 0 and (value > 0) == (sign > 0)
            assert max(abs(v) for v in region.witness) == 1

    def test_no_duplicate_sign_vectors(self, steiner, braid4):
        for arr in (steiner.arr, braid4.arr):
            regions = enumerate_regions(arr)
            assert len({r.key() for r in regions}) == len(regions)

    def test_braid_regions_are_orderings_mod_reversal(self, braid4):
        regions = enumerate_regions(braid4.arr)
        assert len(regions) == 12
        orderings = set()
        for region in regions:
            x = [float(v) for v in region.witness] + [0.0]
            order = tuple(sorted(range(4), key=lambda i: x[i]))
            canon = min(order, order[::-1])
            orderings.add(canon)
        assert len(orderings) == 12

    def test_parallel_rows_rejected(self):
        arr = Arrangement(A=((1, 0), (2, 0), (0, 1)))
        with pytest.raises(ParallelRows):
            enumerate_regions(arr)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            enumerate_regions(Arrangement(A=((1, 0, 0), (0, 1, 0))))

    def test_count_equals_half_chi_at_minus_one(self, pyrng):
        for d, n in ((2, 5), (3, 6), (4, 5)):
            arr = random_arrangement(d, n, pyrng)
            chi = characteristic_polynomial(arr)
            assert len(enumerate_regions(arr)) == abs(chi(-1)) // 2

    def test_generic_counts_sample(self, pyrng):
        for d, n in ((2, 4), (3, 5)):
            for _ in range(3):
                arr = random_arrangement(d, n, pyrng)
                assert len(enumerate_regions(arr)) == generic_ml_degree(d, n)

    def test_chamber_arrangement_past_charpoly_budget(self, seven_lines):
        """28 planes in d = 3: chi is out of budget, but for d = 3 the region
        count |chi(-1)|/2 equals 1 + sum over rank-2 flats X of (m_X - 1)."""
        arr = chamber_arrangement(seven_lines).arrangement
        assert (arr.n, arr.d) == (28, 3)
        with pytest.raises(BudgetExceeded):
            characteristic_polynomial(arr)
        expected = 1 + sum(len(f.subset) - 1 for f in flats(arr, 2) if f.rank == 2)
        regions = enumerate_regions(arr)
        assert len(regions) == expected == 300
        for region in regions:
            signs = tuple(1 if v > 0 else -1 for v in arr.form_values(region.witness))
            assert signs == region.sign.signs


def closure_oracle(arr, max_codim):
    """All flats by brute force over every subset, with sympy ranks."""
    rows = [list(map(sympy.Rational, row)) for row in arr.A]

    def rank_of(subset):
        if not subset:
            return 0
        return sympy.Matrix([rows[i] for i in subset]).rank()

    closures = set()
    for size in range(arr.n + 1):
        for subset in itertools.combinations(range(arr.n), size):
            r = rank_of(subset)
            if r > max_codim:
                continue
            closure = frozenset(
                i for i in range(arr.n) if rank_of(tuple(set(subset) | {i})) == r
            )
            closures.add(closure)
    return closures


class TestFlats:
    def test_steiner_counts(self, steiner):
        result = flats(steiner.arr, 2)
        by_rank = {}
        for flat in result:
            by_rank.setdefault(flat.rank, []).append(flat)
        assert len(by_rank[0]) == 1 and by_rank[0][0].subset == frozenset()
        assert len(by_rank[1]) == 4
        assert len(by_rank[2]) == 6
        assert {f.subset for f in result} == closure_oracle(steiner.arr, 2)

    def test_braid_rank2_flats_include_triples(self, braid4):
        result = flats(braid4.arr, 2)
        singles = [f for f in result if f.rank == 1]
        assert len(singles) == 6
        triples = {f.subset for f in result if f.rank == 2 and len(f.subset) == 3}
        # pairs sharing an index close up to the third transposition
        labels = braid4.arr.labels
        for subset in triples:
            items = sorted(labels[i] for i in subset)
            seen = set("".join(items))
            assert len(seen) == 3
        assert {f.subset for f in result} == closure_oracle(braid4.arr, 2)

    def test_max_codim_zero(self, steiner):
        result = flats(steiner.arr, 0)
        assert len(result) == 1 and result[0].rank == 0

    def test_basis_spans_intersection(self, steiner):
        for flat in flats(steiner.arr, 2):
            for vec in flat.basis:
                for i in flat.subset:
                    assert ratlin.dot(steiner.arr.A[i], vec) == 0


class TestSncCheck:
    def test_steiner_all_pass(self, steiner):
        report = snc_check(steiner.arr)
        assert report.all_pass
        assert len(report.verdicts) == 11

    def test_braid_all_pass(self, braid4):
        assert snc_check(braid4.arr).all_pass

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            snc_check(Arrangement(A=((1, 0), (2, 0), (3, 0))))

    def test_random_real_arrangements_pass(self, pyrng):
        for d, n in ((2, 5), (3, 6)):
            assert snc_check(random_arrangement(d, n, pyrng)).all_pass


class TestSignVector:
    def test_canonicalization(self):
        sv = SignVector.canonical((-1, 1, -1))
        assert sv.signs == (1, -1, 1)
        assert str(sv) == "+-+"
        assert SignVector.parse("+-+") == sv

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            SignVector.from_values((1, 0, -1))
