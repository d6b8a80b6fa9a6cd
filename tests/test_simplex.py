"""The tests' exact tableau simplex (lp_oracle.solve_max)."""

from fractions import Fraction

import pytest

from lp_oracle import LpSolution, Unbounded, solve_max


def F(a, b=1):
    return Fraction(a, b)


def test_known_vertex_and_duals():
    # max 3x + 2y s.t. x + y <= 14/5... classic small instance:
    # max 3x+2y, x+2y <= 4, 3x+y <= 6 -> optimum at (8/5, 6/5)
    sol = solve_max(
        [F(3), F(2)],
        [[F(1), F(2)], [F(3), F(1)]],
        [F(4), F(6)],
    )
    assert isinstance(sol, LpSolution)
    assert list(sol.x) == [F(8, 5), F(6, 5)]
    assert sol.objective == F(36, 5)
    assert list(sol.duals) == [F(3, 5), F(4, 5)]
    # duals certify optimality: y^T b == objective
    assert sum(d * b for d, b in zip(sol.duals, [F(4), F(6)])) == sol.objective


def test_degenerate_cycling_instance_terminates():
    # Beale's cycling example; Dantzig alone loops, the stall switch must
    # finish it
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    rhs = [F(0), F(0), F(1)]
    sol = solve_max(c, rows, rhs)
    assert sol.objective == F(1, 20)


def test_unbounded_detected():
    with pytest.raises(Unbounded):
        solve_max([F(1)], [[F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_max([F(1)], [[F(1)]], [F(-1)])


def test_solution_satisfies_constraints():
    c = [F(5), F(4), F(3)]
    rows = [
        [F(2), F(3), F(1)],
        [F(4), F(1), F(2)],
        [F(3), F(4), F(2)],
    ]
    rhs = [F(5), F(11), F(8)]
    sol = solve_max(c, rows, rhs)
    assert sol.objective == F(13)
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, sol.x)) <= b
    # strong duality, exact
    assert sum(d * b for d, b in zip(sol.duals, rhs)) == sol.objective
    assert all(d >= 0 for d in sol.duals)
