from fractions import Fraction

import numpy as np
import pytest

from dd_oracle import IntEchelon
from sqlinear import ratlin
from sqlinear.arrangement import Arrangement
from sqlinear.degeneration import TropicalData
from sqlinear.geometry import lognormal_polytope
from sqlinear.mle import solve_all
from sqlinear.simplex import feasible_point


class TestCoercion:
    def test_as_fraction(self):
        assert ratlin.as_fraction(3) == Fraction(3)
        assert ratlin.as_fraction("2/7") == Fraction(2, 7)
        assert ratlin.as_fraction(0.1) == Fraction(1, 10)  # via repr, not binary
        assert ratlin.as_fraction(Fraction(5, 3)) == Fraction(5, 3)
        with pytest.raises(TypeError):
            ratlin.as_fraction(True)
        with pytest.raises(TypeError):
            ratlin.as_fraction(None)
        # numpy scalars convert as Python's numbers do
        assert ratlin.as_fraction(np.float64(0.1)) == Fraction(1, 10)
        three = ratlin.as_fraction(np.int64(-3))
        assert three == -3 and type(three.numerator) is int
        with pytest.raises(TypeError):
            ratlin.as_fraction(np.bool_(True))

    def test_arrangement_of_a_numpy_matrix(self):
        assert Arrangement(np.array([[1, 0], [0, 1], [1, 1]])) == Arrangement(((1, 0), (0, 1), (1, 1)))

    def test_tropical_data_of_a_numpy_vector(self):
        assert TropicalData(w=np.array([0, 3, 4, 5]), anchor=0) == TropicalData(w=(0, 3, 4, 5), anchor=0)

    def test_lognormal_polytope_at_a_solved_point(self, steiner):
        y = solve_all(steiner, [4, 3, 2, 1]).mle.y  # an array of np.float64
        assert lognormal_polytope(steiner, y) == lognormal_polytope(steiner, y.tolist())

    def test_primitive(self):
        assert ratlin.primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
        assert ratlin.primitive((-2, 4, -6)) == (1, -2, 3)
        assert ratlin.primitive((0, 0)) == (0, 0)
        assert ratlin.primitive((Fraction(0), Fraction(-5))) == (0, 1)


class TestElimination:
    def test_rref_and_rank(self):
        rows = ratlin.frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert ratlin.rank(rows) == 2
        # Pivots in columns 0 and 1 leave column 2 as the one free column.
        assert ratlin.nullspace(rows) == ((-1, -1, 1),)

    def test_nullspace_annihilates(self):
        rows = ratlin.frac_matrix([[1, 2, 3, 4], [0, 1, 1, 1]])
        basis = ratlin.nullspace(rows)
        assert len(basis) == 2
        for vec in basis:
            assert ratlin.is_zero(ratlin.matvec(rows, vec))

    def test_nullspace_of_nothing_is_identity(self):
        basis = ratlin.nullspace([], ncols=3)
        assert len(basis) == 3
        with pytest.raises(ValueError, match="ncols required for an empty row list"):
            ratlin.nullspace([])

    def test_solve(self):
        A = ratlin.frac_matrix([[2, 1], [1, 3]])
        x = ratlin.solve(A, (Fraction(5), Fraction(10)))
        assert ratlin.matvec(A, x) == (5, 10)
        singular = ratlin.frac_matrix([[1, 2], [2, 4]])
        assert ratlin.solve(singular, (1, 1)) is None

    def test_det(self):
        assert ratlin.det(ratlin.frac_matrix([[1, 2], [3, 4]])) == -2
        assert ratlin.det(ratlin.frac_matrix([[1, 2], [2, 4]])) == 0
        assert ratlin.det(ratlin.frac_matrix([[Fraction(1, 2)]])) == Fraction(1, 2)

    def test_int_echelon_matches_rank(self):
        rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 1, 2)]
        echelon = IntEchelon()
        grew = [echelon.insert(row) for row in rows]
        assert grew == [True, False, True, False]
        assert echelon.rank == ratlin.rank(ratlin.frac_matrix(rows))


class TestFeasibility:
    def test_simple_cone(self):
        rows = ratlin.frac_matrix([[1, 0], [0, 1]])
        x = feasible_point(rows)
        assert x is not None
        assert all(ratlin.dot(r, x) >= 1 for r in rows)

    def test_infeasible_opposites(self):
        rows = ratlin.frac_matrix([[1, 0], [-1, 0]])
        assert feasible_point(rows) is None

    def test_tight_wedge(self):
        # narrow wedge between nearly antipodal directions
        rows = ratlin.frac_matrix([[1, Fraction(1, 1000)], [-1, Fraction(1, 1000)]])
        x = feasible_point(rows)
        assert x is not None
        assert all(ratlin.dot(r, x) >= 1 for r in rows)

    def test_degenerate_duplicates(self):
        rows = ratlin.frac_matrix([[1, 1], [1, 1], [2, 2], [0, 1]])
        x = feasible_point(rows)
        assert x is not None
        assert all(ratlin.dot(r, x) >= 1 for r in rows)

    def test_empty_system(self):
        assert feasible_point([]) == ()

    def test_three_halfplanes_empty_interior(self):
        # rows 2 + 3 force x1 <= -1, contradicting row 1
        rows = ratlin.frac_matrix([[1, 0], [-1, 1], [-1, -1]])
        assert feasible_point(rows) is None
