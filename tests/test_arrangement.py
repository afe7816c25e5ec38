import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest
import sympy

import dd_oracle
import ratlin_oracle
from dd_oracle import IntEchelon
from sqlinear import arrangement, catalog, ratlin
from sqlinear.arrangement import (
    Arrangement,
    CharacteristicPolynomial,
    SignVector,
    characteristic_polynomial,
    enumerate_regions,
    kernel_complement,
    ml_degree,
)
from sqlinear.catalog import braid_arrangement, random_arrangement
from sqlinear.errors import ParallelRows, RankDeficient, ValidationError
from sqlinear.geometry import chamber_arrangement
from sqlinear.model import make_model

from conftest import CATALOG, count_oracle_row_updates, count_row_updates, degenerate_arrangement, pencil


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


def rank_cut_walk(arr):
    """Oracle: the subset walk with only the rank-d cut.

    It returns early only once the included rows reach rank d, so a pencil
    or a non-essential arrangement costs it up to 2^n row reductions.
    """
    n, d = arr.n, arr.d
    rows = [ratlin.primitive(row) for row in arr.A]
    acc = [0] * (d + 1)

    def walk(i, echelon, sign):
        if i == n:
            acc[echelon.rank] += sign
        elif echelon.rank < d:
            walk(i + 1, echelon, sign)
            grown = IntEchelon()
            grown.rows, grown.lead = list(echelon.rows), list(echelon.lead)
            grown.insert(rows[i])
            walk(i + 1, grown, -sign)

    walk(0, IntEchelon(), 1)
    return tuple(acc)


Flat = namedtuple("Flat", "subset rank basis")


def flats(arr, max_codim):
    """All flats of rank <= max_codim, each with a basis of its intersection.

    Every rank-r flat is the closure of r independent rows, so closing all
    subsets of size <= max_codim finds them all (all of R^d for the empty
    flat).
    """
    A, n, d = arr.A, arr.n, arr.d
    seen = {}
    for size in range(max_codim + 1):
        for subset in itertools.combinations(range(n), size):
            sub_rows = [A[i] for i in subset]
            r = ratlin.rank(sub_rows)
            if r != size:
                continue
            closure = frozenset(i for i in range(n) if ratlin.rank(sub_rows + [A[i]]) == r)
            if closure in seen:
                continue
            if sub_rows:
                basis = ratlin.nullspace(sub_rows, ncols=d)
            else:
                basis = tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))
            seen[closure] = Flat(subset=closure, rank=r, basis=basis)
    return sorted(seen.values(), key=lambda f: (f.rank, sorted(f.subset)))


def d3_region_count(arr):
    """1 + sum over rank-2 flats X of (m_X - 1), m_X the rows through X.

    For an essential arrangement in d = 3 this is |chi(-1)|/2: chi(t) =
    t^3 - n t^2 + c t - (c - n + 1) with c the sum, as chi(1) = 0.
    """
    return 1 + sum(len(f.subset) - 1 for f in flats(arr, 2) if f.rank == 2)


def regions_if_accepted(arr):
    """The region count, or None where enumeration refuses the input."""
    try:
        return len(enumerate_regions(arr))
    except (ParallelRows, RankDeficient):
        return None


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

    def test_braid_needs_three_items(self):
        with pytest.raises(ValidationError, match="braid arrangement needs c >= 3"):
            braid_arrangement(2)

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
        # Repeated, parallel and dependent rows are in the span of the rows
        # before them, where the walk cuts its branch; non-essential ones
        # never reach rank d.
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

    def test_matches_rank_cut_walk_on_random_degenerate_arrangements(self, pyrng):
        """60 draws at d = 2..4, then 40 at d = 5 and 6; where enumeration
        accepts a draw, its regions number |chi(-1)|/2."""
        accepted = Counter()
        for trial in range(100):
            d, n = (2 + trial % 3 if trial < 60 else 5 + trial % 2), pyrng.randint(3, 14)
            arr = degenerate_arrangement(pyrng, d, n, essential=trial % 4 != 3)
            chi = characteristic_polynomial(arr)
            assert chi.coeffs == rank_cut_walk(arr), arr.A
            if n <= 7:
                assert chi.coeffs == subset_rank_charpoly(arr), arr.A
            count = regions_if_accepted(arr)
            if count is not None:
                accepted[d] += 1
                assert count == abs(chi(-1)) // 2, arr.A
        assert accepted[2] + accepted[3] + accepted[4] >= 5 and min(accepted[5], accepted[6]) >= 2

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 8), (4, 9), (5, 11), (6, 14)])
    def test_matches_rank_cut_walk_on_random_generic_arrangements(self, pyrng, d, n):
        arr = random_arrangement(d, n, pyrng)
        chi = characteristic_polynomial(arr)
        assert chi.coeffs == rank_cut_walk(arr)
        assert abs(chi(-1)) // 2 == sum(math.comb(n - 1, i) for i in range(d)) == len(enumerate_regions(arr))

    @pytest.mark.parametrize("name", ["steiner", "braid4", "circle", "four_points", "six_points"])
    def test_matches_rank_cut_walk_on_catalog_chamber_arrangements(self, name):
        arr = chamber_arrangement(make_model(CATALOG[name]())).arrangement
        assert arr.n <= 24
        chi = characteristic_polynomial(arr)
        assert chi.coeffs == rank_cut_walk(arr)
        assert abs(chi(-1)) // 2 == len(enumerate_regions(arr))

    def test_pencils_match_rank2_flat_count(self, pyrng, monkeypatch):
        """n = 15..25, past where the rank-d cut stops paying: 2^(n-2)
        subsets of the pencil never reach rank 3. The walk makes at most
        n |chi(-1)| row updates. A join at row i that reaches row j found no
        row between them in the span of its rows, so they form a
        no-broken-circuit set of the first j rows. Each update is one such
        (set, row j) pair, and the first j rows have at most |chi(-1)| of
        those sets, since adding a row never removes a region. (A kept join
        reaches every row, so its rows are a no-broken-circuit set of the
        whole arrangement: fewer than |chi(-1)| joins are kept.)"""
        for n in range(15, 26):
            arr = pencil(pyrng, n)
            calls = count_row_updates(monkeypatch)
            chi = characteristic_polynomial(arr)
            monkeypatch.undo()
            assert chi(1) == 0 and chi.coeffs[:2] == (1, -n)
            assert abs(chi(-1)) // 2 == d3_region_count(arr) == len(enumerate_regions(arr))
            assert 0 < calls[0] <= n * abs(chi(-1))

    def test_wide_pencil_stops_each_join_at_its_first_zero_row(self, pyrng, monkeypatch):
        """45 planes, 43 through one line: each join of two pencil rows puts
        every later pencil row in its span. Joins that reduced all their
        later rows anyway would make about n^3/6 updates, past n |chi(-1)| =
        n (6n - 10) from n = 35 on (15,177 here, against the bound 11,700);
        stopping each join at its first zero row leaves 1,975."""
        arr = pencil(pyrng, 45, spread=9)
        calls = count_row_updates(monkeypatch)
        chi = characteristic_polynomial(arr)
        monkeypatch.undo()
        assert chi.coeffs == dd_oracle.persistent_characteristic_polynomial(arr).coeffs
        assert abs(chi(-1)) == 6 * 45 - 10
        assert 0 < calls[0] <= 45 * abs(chi(-1))

    def test_thousands_of_rows(self):
        # All rows of a d = 1 arrangement are parallel: no join, and a walk n rows deep.
        arr = Arrangement(A=tuple((k,) for k in range(1, 3001)))
        assert characteristic_polynomial(arr).coeffs == (1, -1)

    def test_row_update_bound_on_braid6(self, monkeypatch):
        """At most n |chi(-1)| row updates, by the argument in
        :meth:`test_pencils_match_rank2_flat_count`."""
        arr = braid_arrangement(6)
        calls = count_row_updates(monkeypatch)
        chi = characteristic_polynomial(arr)
        assert abs(chi(-1)) // 2 == 360
        assert 0 < calls[0] <= arr.n * abs(chi(-1))

    @pytest.mark.parametrize("d, n, members", [(4, 9, 32), (5, 9, 32), (6, 14, 4)])
    def test_fewer_row_updates_than_persistent_echelon_walk(self, monkeypatch, d, n, members):
        """Pool members of the exact-regions benchmark shapes, drawn as it
        draws them, and (6,14). Every update the walk makes is one the
        persistent-echelon walk makes too, and that walk reduces a row again
        at every node that reaches it, so on these generic shapes it makes
        strictly more."""
        for k in range(members):
            arr = random_arrangement(d, n, random.Random(f"exact-regions/{d}x{n}/{k}"))
            ours = count_row_updates(monkeypatch)
            chi = characteristic_polynomial(arr)
            theirs = count_oracle_row_updates(monkeypatch)
            assert dd_oracle.persistent_characteristic_polynomial(arr) == chi
            monkeypatch.undo()
            assert 0 < ours[0] < theirs[0]


class TestMlDegree:
    def test_examples(self, steiner, braid4):
        assert ml_degree(steiner.arr) == 7
        assert ml_degree(braid4.arr) == 12

    def test_generic_d3_n5_matches_region_oracle(self, pyrng):
        arr = random_arrangement(3, 5, pyrng)
        assert ml_degree(arr) == 11
        assert len(enumerate_regions(arr)) == 11

    def test_odd_chi_at_minus_one_is_rejected(self):
        # t^2 - 2t + 2 has full rank, but |chi(-1)| = 5 is not twice a region count.
        with pytest.raises(RankDeficient, match=r"^chi\(-1\) odd; arrangement cannot be central and essential$"):
            CharacteristicPolynomial((1, -2, 2)).ml_degree()

    def test_rank_read_off_chi_matches_exact_rank(self, pyrng):
        """ml_degree takes the rank from chi's last nonzero coefficient, so
        it walks once; the message names the rank ratlin computes."""
        deficient = 0
        for trial in range(80):
            d, n = 2 + trial % 3, pyrng.randint(2, 12)
            arr = degenerate_arrangement(pyrng, d, n, essential=trial % 2 == 0)
            if arr.rank() == arr.d:
                assert ml_degree(arr) == abs(characteristic_polynomial(arr)(-1)) // 2
                continue
            deficient += 1
            with pytest.raises(RankDeficient) as info:
                ml_degree(arr)
            assert str(info.value) == f"operation needs rank(A) = d = {d}, got rank {arr.rank()}"
        assert deficient >= 40


class TestGenericMlDegree:
    @pytest.mark.parametrize(
        "d, n, expected", [(3, 4, 7), (2, 3, 3), (3, 6, 16), (4, 7, 42)]
    )
    def test_values(self, pyrng, d, n, expected):
        arr = random_arrangement(d, n, pyrng)
        mu = sum(math.comb(n - 1, i) for i in range(d))
        assert ml_degree(arr) == len(enumerate_regions(arr)) == mu == expected


class TestEnumerateRegions:
    def test_steiner(self, steiner):
        regions = enumerate_regions(steiner.arr)
        assert len(regions) == 7
        keys = [str(r.sign) for r in regions]
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
            assert len({str(r.sign) for r in regions}) == len(regions)

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

    def test_builds_no_fraction(self, monkeypatch):
        """Regions carry integer rays; a Fraction is built only when a
        witness is read."""
        arrangements = (braid_arrangement(5), random_arrangement(5, 9, random.Random("fast-path")))
        expected = [[r.witness for r in enumerate_regions(arr)] for arr in arrangements]

        def refuse(*args):
            raise AssertionError("enumerate_regions built a Fraction")

        monkeypatch.setattr(arrangement, "Fraction", refuse)
        got = [enumerate_regions(arr) for arr in arrangements]
        monkeypatch.undo()
        assert [[r.witness for r in regions] for regions in got] == expected

    def test_parallel_rows_rejected(self):
        arr = Arrangement(A=((1, 0), (2, 0), (0, 1)))
        with pytest.raises(ParallelRows):
            enumerate_regions(arr)

    def test_rank_deficient_rejected(self):
        """The rank found is named, and a low rank is reported before
        parallel rows: the second matrix has both."""
        for A in (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (2, 0, 0), (0, 1, 0))):
            with pytest.raises(RankDeficient, match=r"^operation needs rank\(A\) = d = 3, got rank 2$"):
                enumerate_regions(Arrangement(A=A))

    def test_count_equals_half_chi_at_minus_one(self, pyrng):
        for d, n in ((2, 5), (3, 6), (4, 5)):
            arr = random_arrangement(d, n, pyrng)
            chi = characteristic_polynomial(arr)
            assert len(enumerate_regions(arr)) == abs(chi(-1)) // 2

    def test_generic_counts_sample(self, pyrng):
        for d, n in ((2, 4), (3, 5)):
            for _ in range(3):
                arr = random_arrangement(d, n, pyrng)
                assert len(enumerate_regions(arr)) == sum(math.comb(n - 1, i) for i in range(d))

    def test_chamber_arrangement_past_charpoly_budget(self, seven_lines, monkeypatch):
        """28 planes in d = 3, past the 24-row budget chi once had: chi, the
        rank-2 flat count and the regions all give 300, and the walk makes
        at most n |chi(-1)| row updates (argued in
        :meth:`TestCharacteristicPolynomial.test_pencils_match_rank2_flat_count`)."""
        arr = chamber_arrangement(seven_lines).arrangement
        assert (arr.n, arr.d) == (28, 3)
        calls = count_row_updates(monkeypatch)
        chi = characteristic_polynomial(arr)
        monkeypatch.undo()
        assert chi.coeffs == (1, -28, 299, -272)
        assert 0 < calls[0] <= arr.n * abs(chi(-1))
        regions = enumerate_regions(arr)
        assert len(regions) == d3_region_count(arr) == abs(chi(-1)) // 2 == ml_degree(arr) == 300
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
    """The test-side :func:`flats` that :func:`d3_region_count` reads."""

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


class TestSignVector:
    def test_canonicalization(self):
        sv = SignVector.from_values((-2, Fraction(1, 3), -0.5))
        assert sv == SignVector.from_values((3, -1, 2)) == SignVector((1, -1, 1))
        assert str(sv) == "+-+"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            SignVector.from_values((1, 0, -1))


# Seeded draws of catalog.random_arrangement that the benchmark's workloads
# and the type-scan tests build on: (seed, d, n, lo, hi) -> rows.
PINNED_DRAWS = {
    ("numeric-mle/4x9/0", 4, 9, -9, 9): (
        (-8, -4, -3, -4), (-7, 7, 1, 3), (9, 0, 6, -1), (-7, -5, -8, 1), (4, 4, -8, -5),
        (-4, -5, -6, -1), (-8, 3, 2, 0), (-7, -5, 7, 3), (-4, -1, 3, -5),
    ),
    ("session/3x6/0", 3, 6, -9, 9): ((-6, 1, -9), (-4, 7, -8), (-3, -4, -6), (-5, 1, -5), (-7, 0, -8), (1, 5, 7)),
    ("exact-regions/3x8/0", 3, 8, -9, 9): (
        (0, 6, 2), (-2, -4, 8), (4, -3, -2), (8, -8, -4), (-4, -1, -6), (3, 7, -1), (5, 5, -4), (2, -3, 9),
    ),
    ("typescan/4/6", 4, 6, -5, 5): (
        (5, 3, -5, 2), (4, -1, 0, -3), (4, 3, 5, 1), (4, 2, 5, -4), (1, -5, 3, 5), (4, 1, -3, -5),
    ),
    # The first three candidates of this one are rejected.
    ("pinned/3x6/small", 3, 6, -2, 2): ((2, 1, 0), (-1, -1, -1), (2, -1, -2), (0, 1, -2), (-2, 2, -2), (-2, -2, 0)),
    ("pinned/5x12/0", 5, 12, -9, 9): (
        (5, 5, -5, 7, 5), (2, -8, -5, 4, 3), (-7, -1, -9, 7, -2), (-8, -4, 5, -6, 0), (-8, 0, 1, 7, 6),
        (-1, -8, -1, 6, -2), (-3, -4, -7, -5, -6), (4, -6, -7, 2, -7), (-9, 5, -2, 5, -1), (-1, -6, -1, -4, 1),
        (-7, -9, -5, -8, 7), (-8, -7, -9, -2, 5),
    ),
    ("pinned/6x14/0", 6, 14, -9, 9): (
        (1, 7, 9, 0, 9, 2), (-2, -1, -5, -6, -9, 8), (3, -8, 4, -6, 2, 0), (2, -1, 8, -5, 7, 1),
        (-4, -8, 3, 9, -8, -5), (5, 6, 0, 9, 4, 0), (-1, -3, -3, 4, 8, -5), (1, -4, -7, -1, -3, -6),
        (1, -9, 5, 7, 7, -5), (-9, 3, 8, 3, -1, -3), (1, -3, -1, 9, 2, 6), (6, 4, 4, 3, 8, -2),
        (4, 3, -8, -1, -7, 9), (2, 9, -3, 1, -1, -6),
    ),
}


@pytest.mark.parametrize("draw", PINNED_DRAWS, ids=lambda draw: draw[0])
def test_random_arrangement_keeps_seeded_draws(draw):
    seed, d, n, lo, hi = draw
    arr = random_arrangement(d, n, random.Random(seed), lo, hi)
    assert arr.A == PINNED_DRAWS[draw]
    assert all(type(v) is Fraction for row in arr.A for v in row)


def rank_check_sampler(d, n, rng, lo, hi, rejected):
    """The sampler random_arrangement replaced, kept as its oracle: reject a
    draw with a zero row, then one with parallel rows, then one with a
    dependent d-subset, found by C(n, d) rank checks. ``rejected`` counts
    the rejections by reason; None after 2000 candidates."""
    for _ in range(2000):
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n))
        if any(ratlin.is_zero(row) for row in rows):
            rejected["zero"] += 1
        elif len({ratlin.primitive(row) for row in rows}) < n:
            rejected["parallel"] += 1
        elif not all(ratlin.rank([rows[i] for i in sub]) == d for sub in itertools.combinations(range(n), d)):
            rejected["dependent"] += 1
        else:
            return rows
    return None


def test_random_arrangement_matches_rank_check_oracle():
    """528 seeds, 11 on each shape d = 2..5, n = d..d+5, entries -2..2 and
    -9..9: the chi test keeps every draw of the rank-check sampler. Its 7,194
    rejected candidates (518 with a zero row, 2,333 with parallel rows and
    4,343 with a dependent d-subset) pin that the non-generic branch runs."""
    rejected = {"zero": 0, "parallel": 0, "dependent": 0}
    shapes = [(d, n, lo) for lo in (-2, -9) for d in range(2, 6) for n in range(d, d + 6)]
    for seed in range(11 * len(shapes)):
        d, n, lo = shapes[seed % len(shapes)]
        expected = rank_check_sampler(d, n, random.Random(f"oracle/{seed}"), lo, -lo, rejected)
        assert random_arrangement(d, n, random.Random(f"oracle/{seed}"), lo, -lo).A == expected
    assert rejected == {"zero": 518, "parallel": 2333, "dependent": 4343}


def test_random_arrangement_walks_chi_once_per_candidate(monkeypatch):
    """No rank check on a subset: one chi walk for each candidate without a
    zero row, kept or rejected. The seeds draw 49 candidates: 4 with a zero
    row, 9 with parallel rows and 28 with a dependent 3-subset."""
    seeds = [f"walks/{seed}" for seed in range(8)]
    rejected = {"zero": 0, "parallel": 0, "dependent": 0}
    for seed in seeds:
        rank_check_sampler(3, 6, random.Random(seed), -2, 2, rejected)
    assert rejected == {"zero": 4, "parallel": 9, "dependent": 28}
    rank_calls, walks = [], []
    rank, walk = ratlin.rank, arrangement.characteristic_polynomial
    monkeypatch.setattr(ratlin, "rank", lambda rows: rank_calls.append(rows) or rank(rows))
    monkeypatch.setattr(catalog, "characteristic_polynomial", lambda arr: walks.append(arr) or walk(arr), raising=False)
    for seed in seeds:
        random_arrangement(3, 6, random.Random(seed), -2, 2)
    assert rank_calls == []
    assert len(walks) == len(seeds) + rejected["parallel"] + rejected["dependent"]


def test_random_arrangement_refuses_an_empty_entry_range():
    with pytest.raises(ValidationError, match=r"empty entry range \[5, 1\]"):
        random_arrangement(3, 5, random.Random(0), lo=5, hi=1)


def test_random_arrangement_names_the_range_when_it_gives_up():
    """25 rows in d = 2 from -1..1 hold at most 4 directions, so every draw
    has parallel rows; the message says where the draws came from."""
    match = r"could not sample a generic \(2, 25\) arrangement from \[-1, 1\] in 2000 draws"
    with pytest.raises(ValidationError, match=match):
        random_arrangement(2, 25, random.Random(0), lo=-1, hi=1)


@pytest.mark.parametrize("d, n", [(3, 2), (0, 2), (1, 3)], ids=["n<d", "d<1", "d=1<n"])
def test_random_arrangement_refuses_shapes_without_a_generic_draw(d, n):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValidationError, match="no generic"):
        random_arrangement(d, n, rng)
    assert rng.getstate() == state
