"""Exact tableau simplex and the rational linear-system solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusk.simplex import LpSolution, Unbounded, solve_max, solve_rational_system


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


def test_rational_system_particular_solution():
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}]
    rhs = [F(3), F(6)]
    x = solve_rational_system(rows, rhs, 2)
    assert x is not None
    assert sum(a * x[c] for c, a in rows[0].items()) == F(3)


def test_rational_system_inconsistent():
    assert solve_rational_system([{0: F(1)}, {0: F(1)}], [F(1), F(2)], 1) is None


def test_rational_system_unique():
    x = solve_rational_system([{0: F(2)}, {1: F(4)}], [F(3), F(1)], 2)
    assert x == [F(3, 2), F(1, 4)]


coeffs = st.integers(-4, 4).filter(bool)
values = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def sparse_systems(draw):
    """(rows, x0, n): sparse rows over n unknowns, with some rows linear
    combinations of earlier ones, and a point x0."""
    n = draw(st.integers(1, 7))
    x0 = draw(st.lists(values, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(coeffs), draw(st.integers(-2, 2))
            row = {c: p * u.get(c, 0) + q * v.get(c, 0) for c in u.keys() | v.keys()}
            row = {c: a for c, a in row.items() if a}
        else:
            cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            row = {c: F(draw(coeffs)) for c in cols}
        rows.append(row)
    return rows, x0, n


def _apply(row, x):
    return sum((a * x[c] for c, a in row.items()), F(0))


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_rational_system_solves_consistent_sparse(system):
    rows, x0, n = system
    x = solve_rational_system(rows, [_apply(row, x0) for row in rows], n)
    assert x is not None and len(x) == n
    assert all(_apply(row, x) == _apply(row, x0) for row in rows)


@given(sparse_systems(), values.filter(bool), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_system_repeated_row_other_rhs(system, delta, data):
    rows, x0, n = system
    row = data.draw(st.sampled_from([r for r in rows if r] or [{0: F(1)}]))
    rhs = [_apply(r, x0) for r in rows]
    assert solve_rational_system(rows + [row], rhs + [_apply(row, x0) + delta], n) is None


@given(sparse_systems(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_rational_system_free_variables_zero(system, extra):
    rows, x0, n = system
    x = solve_rational_system(rows, [_apply(row, x0) for row in rows], n + extra)
    assert x is not None
    used = set().union(*rows)
    assert all(x[c] == 0 for c in range(n + extra) if c not in used)
    assert sorted(solve_rational_system([{0: F(1), 1: F(1)}], [F(3)], 2)) == [0, 3]
