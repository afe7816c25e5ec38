"""Test oracle: closed-form critical points at unit data, the earlier way.

This is :func:`sqlinear.degeneration.unit_data_solutions` as it was before
it solved each support's Gram system directly on the rows of B: it builds
B_K from transposed columns, forms the Gram matrix with ``ratlin.matmul``,
maps u back through ``matvec`` and ``scale``, asserts B y = 0, and rebuilds
every record when it marks collisions. tests/test_degeneration.py checks
that both give equal records.
"""

from __future__ import annotations

from fractions import Fraction

from sqlinear import ratlin
from sqlinear.degeneration import DegenerateSolution, admissible_supports
from sqlinear.errors import RankDeficient


def unit_data_solutions(model, anchor: int) -> list:
    arr = model.arr
    n, d = arr.n, arr.d
    if arr.rank() != d:
        raise RankDeficient("degenerate solutions need an essential arrangement")
    if not 0 <= anchor < n:
        raise RankDeficient(f"anchor {anchor} out of range for n = {n}")
    B = model.B.B
    Bcols = ratlin.transpose(B)
    solutions = []
    for J in admissible_supports(n, anchor, d):
        keep = [k for k in range(n) if k != anchor and k not in J]
        BK = ratlin.transpose(tuple(Bcols[k] for k in keep))
        gram = ratlin.matmul(BK, ratlin.transpose(BK))
        rhs = Bcols[anchor]
        u = ratlin.solve(gram, rhs) if gram else None
        if u is None:
            solutions.append(DegenerateSolution(J=J, y=(), generic_flag=False, error="singular Gram matrix"))
            continue
        yK = ratlin.matvec(ratlin.transpose(BK), ratlin.scale(u, Fraction(-1)))
        y = [Fraction(0)] * n
        y[anchor] = Fraction(1)
        for k, value in zip(keep, yK):
            y[k] = value
        assert ratlin.is_zero(ratlin.matvec(B, y)), "kernel constraint violated"
        flag = all(y[k] != 0 for k in keep)
        prim = ratlin.primitive(y)
        if prim[anchor] < 0:
            prim = tuple(-v for v in prim)
        solutions.append(
            DegenerateSolution(J=J, y=prim, generic_flag=flag, error=None)
        )
    # Collisions between supports break genericity for all involved entries.
    groups = {}
    for idx, sol in enumerate(solutions):
        if sol.y:
            groups.setdefault(sol.y, []).append(idx)
    flagged = list(solutions)
    for idxs in groups.values():
        if len(idxs) > 1:
            for idx in idxs:
                sol = flagged[idx]
                flagged[idx] = DegenerateSolution(
                    J=sol.J, y=sol.y, generic_flag=False,
                    error=sol.error or "support collision",
                )
    return flagged
