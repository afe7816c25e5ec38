"""The shared-line double description and the chi walk that keeps each later
row reduced, against the per-cone step and the truncating and
persistent-echelon walks they replaced (tests/dd_oracle.py).

Over random arrangements with small entries (so triple points, rows through
extreme rays and dependent rows are common), the catalog and the shapes of
the exact-regions benchmark workload, both must return the same regions with
the same sign strings and the same Fraction witnesses, the same ordered
(ray, zero mask) lists for the regions' cones, and the same chi.

Uniform arrangements, where every d rows are independent, run the whole
double description on the simple-line rule of ``_cones`` (no scan of third
rays); one extra row through an existing line ends the rule at that row.
"""

import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import dd_oracle as oracle
from conftest import (
    CATALOG,
    count_row_updates,
    degenerate_arrangement,
    make_model,
    pencil,
    sample_kernel_point,
    sample_wall_point,
)
from sqlinear import arrangement, catalog, geometry, mle, ratlin
from sqlinear.dpp import DPPModel, linear_projection_arrangement
from sqlinear.errors import ValidationError
from sqlinear.geometry import chamber_arrangement

# Cones checked per arrangement: every region's for arrangements up to this
# many regions, a seeded sample of this many for larger ones.
CONES_PER_ARRANGEMENT = 32


def small_entry_arrangements(seed):
    """Endless random draws: d = 2..5, n = d+1..d+7, entries -3..3, zero rows dropped."""
    rng = random.Random(seed)
    while True:
        d = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d + 1, d + 7))]
        rows = [row for row in rows if any(row)]
        if rows:
            yield arrangement.Arrangement(A=rows)


def enumerable(arr):
    """Essential and without parallel rows, as enumeration requires."""
    return arr.rank() == arr.d and not oracle.parallel_pairs(arr)


def dpp5_members(members):
    """The first pool members of the exact-regions DPP n = 5 shape, drawn as
    the workload draws them: a DPP's fixed rows are redrawn until its
    arrangement has no parallel rows."""
    out = []
    for k in range(members):
        rng = random.Random(f"exact-regions/dpp5/{k}")
        while True:
            theta = tuple(tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(2))
            try:
                arr = linear_projection_arrangement(DPPModel(Theta_fixed=theta, k=3, n=5)).arrangement
            except ValidationError:
                continue
            if enumerable(arr):
                out.append(arr)
                break
    return out


def benchmark_shapes(members=4):
    """The first pool members of each exact-regions shape, drawn as the
    workload draws them."""
    return [
        catalog.random_arrangement(d, n, random.Random(f"exact-regions/{d}x{n}/{k}"))
        for d, n in ((3, 8), (4, 9), (5, 9), (3, 12))
        for k in range(members)
    ] + dpp5_members(members)


def assert_same_enumeration(arr):
    regions = arrangement.enumerate_regions(arr)
    expected = oracle.enumerate_regions(arr)
    assert [str(r.sign) for r in regions] == [str(r.sign) for r in expected]
    assert [r.witness for r in regions] == [r.witness for r in expected]
    for region, old in zip(regions, expected):
        # The ray is primitive, and over its largest |entry| it is the oracle's Fraction witness.
        ray = region.ray
        assert all(type(v) is int for v in ray) and math.gcd(*ray) == 1
        assert tuple(Fraction(v, max(map(abs, ray))) for v in ray) == old.witness
    ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
    chosen, base = arrangement._simplicial_start(ints, arr.d)
    if len(regions) > CONES_PER_ARRANGEMENT:
        regions = random.Random(str(regions[0].sign)).sample(regions, CONES_PER_ARRANGEMENT)
    for region in regions:
        signs = region.sign.signs
        got = arrangement._cone_rays(signs, chosen, base, ints, arr.d)
        assert got == oracle.cone_rays(signs, chosen, base, ints, arr.d)
    return len(expected)


@pytest.mark.parametrize("seed", range(6))
def test_small_entry_arrangements(seed):
    """50 enumerable arrangements per seed, 300 in all; chi on every draw,
    the rank-deficient and parallel ones too."""
    kept = 0
    for arr in small_entry_arrangements(f"dd/{seed}"):
        assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
        if enumerable(arr):
            assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)
            kept += 1
            if kept == 50:
                break


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog(name):
    arr = CATALOG[name]()
    assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
    assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)


def test_benchmark_shapes():
    for arr in benchmark_shapes():
        assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)
        assert assert_same_enumeration(arr) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("d", range(2, 7))
def test_rays_of_random_arrangements(d):
    """Seeded uniform draws, n = d+1..d+4: each region's ray gives the
    oracle's Fraction witness (see :func:`assert_same_enumeration`)."""
    for n in range(d + 1, d + 5):
        arr = catalog.random_arrangement(d, n, random.Random(f"dd/rays/{d}x{n}"))
        assert assert_same_enumeration(arr) == sum(math.comb(n - 1, k) for k in range(d))


def regions_with_rays(arr):
    """Each region of ``arr`` with the (vector, zero mask) extreme rays of its cone."""
    ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
    chosen, base = arrangement._simplicial_start(ints, arr.d)
    for region in arrangement.enumerate_regions(arr):
        yield region, arrangement._cone_rays(region.sign.signs, chosen, base, ints, arr.d)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_ray_bits_stay_near_the_largest_ray_top(d):
    """Each region's ray sums its m extreme rays weighted 2^(e - e_j), e_j
    the bit length of ray j's largest |entry| and e the largest, so every
    entry is below m 2^e: at most e + bit_length(m) bits. A sum over the
    lcm of the tops grows with their product instead."""
    for k in range(2):
        arr = catalog.random_arrangement(d, 12, random.Random(f"dd/bits/{d}/{k}"), -99, 99)
        for region, rays in regions_with_rays(arr):
            e = max(max(map(abs, ray)).bit_length() for ray, _ in rays)
            assert max(map(abs, region.ray)).bit_length() <= e + len(rays).bit_length(), region.sign


@pytest.mark.parametrize("name", ["steiner", "braid3", "braid4", "braid5", "four_points", "circle"])
def test_power_of_two_weights_keep_the_lcm_witnesses(name):
    """Where every ray top is c 2^k for one c, the weights 2^(e - e_j) are
    proportional to 1 / top_j, so each witness is still the sum of the rays
    scaled to largest |entry| 1, over its largest |entry|."""
    arr = catalog.braid_arrangement(3) if name == "braid3" else CATALOG[name]()
    for region, rays in regions_with_rays(arr):
        total = [sum(column) for column in zip(*([Fraction(v, max(map(abs, ray))) for v in ray] for ray, _ in rays))]
        top = max(map(abs, total))
        assert region.witness == tuple(v / top for v in total), region.sign


def test_float_starts_beyond_two_to_the_53(monkeypatch):
    """A line p x = q y with p, q near 2^58 puts entries above 2^53 into the
    rays, where float(v) / float(top) rounds twice. The solver starts from
    v / top, one correctly rounded division, which is float() of the
    Fraction witness bit for bit."""
    p, q = 167452843872785493, 510309175715956685
    model = make_model(arrangement.Arrangement(A=((1, 0), (0, 1), (p, -q))))
    regions = arrangement.enumerate_regions(model.arr)
    assert max(abs(v) for r in regions for v in r.ray) > 2**53
    expected = np.array([[float(w) for w in r.witness] for r in regions])
    shortcut = np.array([[float(v) / float(max(map(abs, r.ray))) for v in r.ray] for r in regions])
    assert not np.array_equal(shortcut, expected)  # the test tells the two apart
    starts, to_floats = [], mle.to_floats

    def recording(values, name):
        out = to_floats(values, name)
        if name == "start":
            starts.append(out.copy())  # the solver iterates in place
        return out

    monkeypatch.setattr(mle, "to_floats", recording)
    mle._solve_batch(model, [[1, 2, 3]], regions, 1e-10)
    assert len(starts) == 1 and starts[0].tobytes() == expected.tobytes()


def uniform_draws(d):
    """One seeded uniform arrangement for each n = d+2..d+8."""
    return [catalog.random_arrangement(d, n, random.Random(f"dd/uniform/{d}x{n}")) for n in range(d + 2, d + 9)]


def simple_lines(ints, d):
    """The line table of ``_cones`` over ``ints``, checked to hold only
    simple lines: exactly d - 1 zero rows each, so the rule held throughout."""
    lines, _ = arrangement._cones(ints, d, *arrangement._simplicial_start(ints, d))
    assert all(mask.bit_count() == d - 1 for _, mask, _ in lines)
    return lines


@pytest.mark.parametrize("d", range(3, 7))
def test_uniform_arrangements(d):
    """Every line stays simple, and regions, witnesses and cones match the scan."""
    for arr in uniform_draws(d):
        simple_lines([arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A], d)
        assert assert_same_enumeration(arr) == sum(math.comb(arr.n - 1, i) for i in range(d))


@pytest.mark.parametrize("d", range(3, 7))
def test_row_through_a_line_ends_the_rule(d):
    """The uniform draws up to n = d+5, with one extra row put at every index
    after the start rows: an integer combination, coefficients -2..2, of
    d - 1 rows before it, so that it vanishes on a line the rows before it
    made and the scan takes over from that row on. Zero coefficients leave
    combinations of d - 3 rows, whose d - 2 rows share a flat of rank d - 3:
    from d = 5 on, two rays sharing d - 2 zero rows there need not be
    adjacent, which only the scan tells."""
    rng = random.Random(f"dd/through/{d}")
    for arr in uniform_draws(d)[:4]:
        rows = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
        for at in range(d, len(rows) + 1):
            while True:
                combination = [rng.randint(-2, 2) for _ in range(d - 1)]
                picked = rng.sample(rows[:at], d - 1)
                extra = [sum(map(mul, combination, column)) for column in zip(*picked)]
                if any(extra):
                    drawn = arrangement.Arrangement(A=[*rows[:at], extra, *rows[at:]])
                    if enumerable(drawn):
                        break
            lines = simple_lines(rows[:at], d)
            assert any(not sum(map(mul, extra, vector)) for vector, _, _ in lines)
            assert assert_same_enumeration(drawn) == arrangement.ml_degree(drawn)


@pytest.mark.parametrize("on_wall", [False, True], ids=["off-wall", "on-wall"])
def test_data_cone(on_wall):
    """The log-normal data cone matches the scan off a chamber wall, where
    every ray is simple, and on one, where some ray is not."""
    rng = random.Random(f"dd/data-cone/{on_wall}")
    checked = 0
    while checked < 6:
        model = make_model(catalog.random_arrangement(rng.choice([2, 3]), rng.randint(5, 8), rng, lo=-5, hi=5))
        y = (sample_wall_point if on_wall else sample_kernel_point)(model, rng)
        y, _ = ratlin.cleared(y)
        rays, rows, _, _ = geometry._data_cone(model.B.B, y)
        dim = len(rows[0])
        simple = all(mask.bit_count() == dim - 1 for _, mask in rays)
        if simple == on_wall:
            continue  # a wall point where the polytope stays simple
        ones = (1,) * len(y)
        assert rays == oracle.cone_rays(ones, *arrangement._simplicial_start(rows, dim), rows, dim)
        checked += 1


@pytest.mark.parametrize(
    "arr",
    [
        catalog.braid_arrangement(6),
        arrangement.Arrangement(A=tuple((k,) for k in range(1, 3001))),
        arrangement.Arrangement(A=((1, 0, 1), (0, 1, 1), (1, 1, 2), (2, -1, 1), (2, 4, 6), (1, 2, 3))),
    ],
    ids=["braid6", "d1-3000-rows", "rank2-in-d3"],
)
def test_chi_past_enumeration(arr):
    """chi where enumeration is slow or refuses: 720 regions, thousands of
    parallel rows, rank 2 in d = 3 with two parallel rows."""
    assert arrangement.characteristic_polynomial(arr) == oracle.characteristic_polynomial(arr)


def degenerate_draws(rng):
    """100 draws of :func:`conftest.degenerate_arrangement`, d = 2..6 in turn."""
    return [degenerate_arrangement(rng, 2 + k % 5, rng.randint(3, 14), essential=k % 4 != 3) for k in range(100)]


def rank2_tails(rng, d):
    """Three arrangements for each k = 1..4 whose rows after a leading block
    of d - 2 rows lie in k quotient directions: each is an integer
    combination of the block plus a nonzero multiple of one of k vectors in
    the last two columns, every vector used. The block is independent on
    its first d - 2 columns, so the join of all of it has rank d - 2 and
    leaves the tail rows in the last two columns; the vectors (1, 0) and
    (0, 1) make rows that vanish in one of them. Every draw repeats one of
    its tail rows."""
    pool = [(1, 0), (0, 1), (1, 1), (2, -3), (1, -2), (3, 1)]
    out = []
    for k in range(1, 5):
        for _ in range(3):
            while True:
                block = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d - 2)]
                if ratlin.rank([row[: d - 2] for row in block]) == d - 2:
                    break
            directions = rng.sample(pool, k)
            tail = directions + [rng.choice(directions) for _ in range(rng.randint(0, 5))]
            rng.shuffle(tail)
            rows = [*block]
            for u in tail:
                lam = rng.choice((-3, -2, -1, 1, 2, 3))
                coefficients = [rng.randint(-2, 2) for _ in block]
                rows.append([sum(map(mul, coefficients, column)) for column in zip(*block)] if block else [0] * d)
                rows[-1][-2:] = [x + lam * v for x, v in zip(rows[-1][-2:], u)]
            rows.insert(rng.randint(d - 2, len(rows)), list(rng.choice(rows[d - 2 :])))
            out.append(arrangement.Arrangement(A=rows))
    return out


PERSISTENT_WALK_CASES = {
    "generic": lambda: [
        catalog.random_arrangement(d, n, random.Random(f"dd/chi/{d}x{n}")) for d in range(2, 7) for n in range(d, d + 7)
    ],
    "benchmark-pool": lambda: benchmark_shapes(members=8),
    "degenerate": lambda: degenerate_draws(random.Random("dd/chi/degenerate")),
    "pencils": lambda: [pencil(random.Random(f"dd/chi/pencil/{n}"), n) for n in range(15, 26)],
    "d1-3000-rows": lambda: [arrangement.Arrangement(A=tuple((k,) for k in range(1, 3001)))],
    "catalog": lambda: [CATALOG[name]() for name in sorted(CATALOG)],
    # braid(5) has no chamber arrangement: a minor of its kernel basis vanishes.
    "chambers": lambda: [
        chamber_arrangement(make_model(CATALOG[name]())).arrangement for name in sorted(CATALOG) if name != "braid5"
    ],
    "braid6": lambda: [catalog.braid_arrangement(6)],
    "rank2-tails": lambda: [arr for d in range(2, 7) for arr in rank2_tails(random.Random(f"dd/chi/tails/{d}"), d)],
}


@pytest.mark.parametrize("family", PERSISTENT_WALK_CASES)
def test_chi_matches_persistent_echelon_walk(family):
    """The walk that keeps each later row reduced gives the coefficients of
    the walk that reduced each node's row against its whole basis: generic
    draws at d = 2..6 (n = d..d+6), pool members of every exact-regions
    shape and DPP n = 5 reductions, degenerate draws at d = 2..6, pencils
    with n = 15..25, 3,000 parallel rows in d = 1, the catalog, its chamber
    arrangements (all but braid(5)'s, which has none), braid(6), and
    :func:`rank2_tails` at d = 2..6, where the rank-(d - 2) closing rule
    counts few directions."""
    for arr in PERSISTENT_WALK_CASES[family]():
        expected = oracle.persistent_characteristic_polynomial(arr).coeffs
        assert arrangement.characteristic_polynomial(arr).coeffs == expected, arr.A


def test_d3_walk_updates_rows_only_in_the_roots_joins(monkeypatch):
    """At d = 3 a join of the root has rank 1 = d - 2 and closes its subtree
    at once, so only the root's joins update rows: at most n(n - 1)/2, on
    seeded generic (3, n), n = 8..40 (entries -99..99), and the
    exact-regions DPP n = 5 pool members. Over the first 32 exact-regions
    (3,12) pool members, a walk of those subtrees makes 279 updates on
    average and the closing rule 63."""
    arrs = [catalog.random_arrangement(3, n, random.Random(f"dd/d3-updates/{n}"), -99, 99) for n in range(8, 41)]
    for arr in arrs + dpp5_members(8):
        assert arr.d == 3
        calls = count_row_updates(monkeypatch)
        chi = arrangement.characteristic_polynomial(arr)
        monkeypatch.undo()
        assert chi == oracle.persistent_characteristic_polynomial(arr)
        assert 0 < calls[0] <= arr.n * (arr.n - 1) // 2, arr.A
