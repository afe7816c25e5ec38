"""Ray-only region enumeration against the LP oracle.

sqlinear.arrangement enumerates regions from their extreme rays alone and
takes each witness as the sum of the region's extreme rays, each divided by
the power of two just above its largest absolute coordinate;
tests/lp_oracle.py runs one LP per (region, inserted hyperplane). The two
must return the same sign vectors in the same order, and every witness must
be normalized, lie strictly inside its region (checked exactly) and equal
that scaled sum of the brute-force extreme rays.
"""

import functools
import itertools
import random
import sys
from fractions import Fraction

import pytest

import dd_oracle
import lp_oracle as oracle
from conftest import CATALOG
from sqlinear import arrangement, catalog, ratlin, simplex
from sqlinear.errors import ValidationError


def orthogonal_part(u, v):
    """A positive multiple of u minus its projection on v, so it vanishes at v."""
    return ratlin.sub(ratlin.scale(u, ratlin.dot(v, v)), ratlin.scale(v, ratlin.dot(v, u)))


def late_start_arrangements(seed, count):
    """Degenerate rational arrangements whose first d+1 or more rows have rank < d.

    The leading rows lie in one hyperplane through the origin (e.g. three
    coplanar rows first in d = 3); the rest have small entries, so triple
    points and rows vanishing on extreme rays are common.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(3, 4)
        normal = [rng.randint(-2, 2) for _ in range(d)]
        if not any(normal):
            continue
        rows = []
        while len(rows) < d:
            u = [rng.randint(-3, 3) for _ in range(d)]
            row = orthogonal_part(u, normal)
            if not ratlin.is_zero(row):
                rows.append(row)
        for _ in range(rng.randint(2, 4)):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rows.append(tuple(scale * rng.randint(-2, 2) for _ in range(d)))
        try:
            arr = arrangement.Arrangement(A=tuple(rows))
            arrangement._require_essential(arr)
        except ValidationError:
            continue  # a zero row, or rank < d
        if dd_oracle.parallel_pairs(arr):
            continue
        # The start rows of the enumeration end at row d or later.
        assert ratlin.independent_rows(arr.A, d)[-1] >= d
        out.append(arr)
    return out


def on_witness_arrangements(seed, count):
    """Generic prefixes followed by a row through one of their LP-oracle witnesses.

    The oracle keeps each region's witness until the region splits, and the
    final witness is that point rescaled, so the extra row meets the oracle's
    witness exactly when it is inserted.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        prefix = catalog.random_arrangement(d, rng.randint(d + 1, d + 3), rng)
        witness = rng.choice(oracle.enumerate_regions(prefix)).witness
        u = [rng.randint(-5, 5) for _ in range(d)]
        row = orthogonal_part(u, witness)
        if ratlin.is_zero(row):
            continue
        arr = arrangement.Arrangement(A=prefix.A + (row,))
        if dd_oracle.parallel_pairs(arr):
            continue
        out.append(arr)
    return out


@functools.cache
def kernel_lines(arr):
    """The kernel of every rank d-1 set of rows as a primitive integer vector,
    with the values of all forms on it (their signs are all that is needed)."""
    d = arr.d
    lines = set()
    for subset in itertools.combinations(range(arr.n), d - 1):
        kernel = ratlin.nullspace([arr.A[i] for i in subset], ncols=d)
        if len(kernel) == 1:
            lines.add(arrangement._ray(ratlin.cleared(kernel[0])[0]))
    return [(line, arr.form_values(line)) for line in lines]


def extreme_rays(arr, signs):
    """Extreme rays of {s_i A_i x >= 0} by brute force: the kernel of every
    rank d-1 set of rows, kept where it lies in the cone."""
    found = set()
    for line, values in kernel_lines(arr):
        for side in (1, -1):
            if all(side * s * v >= 0 for s, v in zip(signs, values)):
                mask = sum(1 << i for i, v in enumerate(values) if v == 0)
                found.add((tuple(side * v for v in line), mask))
    return found


def scaled_ray_sum(rays):
    """sum_j r_j / 2^e_j, e_j the bit length of max|r_j|, scaled to largest
    absolute coordinate 1."""
    scaled = [[Fraction(v, 2 ** max(map(abs, ray)).bit_length()) for v in ray] for ray, _ in rays]
    total = [sum(column) for column in zip(*scaled)]
    top = max(map(abs, total))
    return tuple(v / top for v in total)


def assert_same_regions(arr):
    """The oracle's sign vectors in the oracle's order, and witnesses that are
    normalized, exactly interior and the scaled sum of their extreme rays."""
    regions = arrangement.enumerate_regions(arr)
    assert [r.sign for r in regions] == [r.sign for r in oracle.enumerate_regions(arr)]
    for region in regions:
        signs = region.sign.signs
        assert max(abs(v) for v in region.witness) == 1
        assert all(s * v > 0 for s, v in zip(signs, arr.form_values(region.witness)))
        assert region.witness == scaled_ray_sum(extreme_rays(arr, signs))
    return regions


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_random_generic_arrangements(d):
    rng = random.Random(f"screen/{d}")
    for _ in range(12 if d < 5 else 4):
        arr = catalog.random_arrangement(d, rng.randint(d + 1, d + (6 if d < 5 else 3)), rng)
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


def test_degenerate_arrangements_with_late_screening():
    for arr in late_start_arrangements(11, 30):
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


def test_witness_on_a_later_hyperplane():
    for arr in on_witness_arrangements(12, 20):
        assert len(assert_same_regions(arr)) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog(name):
    assert_same_regions(CATALOG[name]())


def test_enumeration_runs_no_lp(monkeypatch):
    """Generic, late-start and on-witness arrangements all enumerate with the
    exact LP patched to raise, in every package module that holds it."""
    rng = random.Random(13)
    cases = [catalog.random_arrangement(d, d + 5, rng) for d in (2, 3, 4)]
    cases += late_start_arrangements(14, 6) + on_witness_arrangements(15, 6)

    def no_lp(rows):
        raise AssertionError("region enumeration ran an LP")

    lp = simplex.feasible_point
    for name, module in list(sys.modules.items()):
        if name.startswith("sqlinear") and vars(module).get("feasible_point") is lp:
            monkeypatch.setattr(module, "feasible_point", no_lp)
    for arr in cases:
        assert len(arrangement.enumerate_regions(arr)) == arrangement.ml_degree(arr)


@pytest.mark.parametrize("kind", ["generic", "late_start"])
def test_carried_rays_are_the_extreme_rays(kind):
    """Cutting every row into the start cone, one double-description step at
    a time, leaves exactly the extreme rays with exactly their zero masks."""
    if kind == "generic":
        rng = random.Random(16)
        cases = [catalog.random_arrangement(d, d + 4, rng) for d in (2, 3, 4)]
    else:
        cases = late_start_arrangements(17, 5)
    for arr in cases:
        chosen = ratlin.independent_rows(arr.A, arr.d)
        columns = ratlin.transpose(ratlin.inverse([arr.A[i] for i in chosen]))
        base = [arrangement._ray(ratlin.cleared(col)[0]) for col in columns]
        ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
        for region in arrangement.enumerate_regions(arr):
            rays = arrangement._cone_rays(region.sign.signs, chosen, base, ints, arr.d)
            assert len(rays) == len(set(rays))
            assert set(rays) == extreme_rays(arr, region.sign.signs)


def canonical(line):
    """A line's vector up to sign: first nonzero entry positive."""
    return line if next(v for v in line if v) > 0 else tuple(-v for v in line)


@pytest.mark.parametrize("kind", ["generic", "late_start", "on_witness"])
def test_line_table_holds_no_more_lines_than_the_arrangement(kind):
    """Enumeration evaluates each row once per line of its shared table. The
    table holds no more lines than kernel_lines finds, with no line twice, and
    each line carries the mask of exactly the rows vanishing on it."""
    if kind == "generic":
        rng = random.Random(18)
        cases = [catalog.random_arrangement(d, d + 4, rng) for d in (2, 3, 4, 5)]
    elif kind == "late_start":
        cases = late_start_arrangements(19, 5)
    else:
        cases = on_witness_arrangements(20, 5)
    for arr in cases:
        ints = [arrangement._ray(ratlin.cleared(row)[0]) for row in arr.A]
        lines, _ = arrangement._cones(ints, arr.d, *arrangement._simplicial_start(ints, arr.d))
        kernel = {canonical(line): values for line, values in kernel_lines(arr)}
        assert len(lines) <= len(kernel)
        assert len({canonical(vector) for vector, _, _ in lines}) == len(lines)
        for vector, mask, _ in lines:
            values = kernel[canonical(vector)]
            assert mask == sum(1 << i for i, v in enumerate(values) if v == 0)
