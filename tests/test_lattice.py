"""Point sets, validity checks, unimodular maps and hull geometry."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from torusk.lattice import (
    NiceSet,
    UnimodularMatrix,
    apply_matrix,
    canonical_position,
    check_k_nice,
    convex_hull,
    height,
    hull_area,
    is_hull_closed,
    maximal_closure,
    normalize_y_nonneg,
    pair_measure,
    shear_power,
)

unimods = st.builds(
    lambda t, s, r: _compose(t, s, r),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 3),
)


def _compose(t: int, s: int, r: int) -> UnimodularMatrix:
    rot = UnimodularMatrix(0, 1, -1, 0)
    m = shear_power(t)
    m = m @ UnimodularMatrix(1, 0, s, 1)
    for _ in range(r):
        m = m @ rot
    return m


points = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
    lambda p: gcd(p[0], p[1]) == 1
)


def test_pair_measure_examples():
    assert pair_measure((1, 0), (0, 1)) == 1
    assert pair_measure((2, 1), (1, 2)) == 3
    assert pair_measure((5, 3), (5, 3)) == 0


@given(points, points, unimods)
def test_pair_measure_unimodular_invariance(p, q, mat):
    assert pair_measure(mat.apply(p), mat.apply(q)) == pair_measure(p, q)


def test_check_k_nice_reasons():
    assert check_k_nice([(1, 0), (0, 1)], 1) is None
    assert "(0, 0)" in check_k_nice([(0, 0)], 1)
    assert "coprime" in check_k_nice([(2, 4)], 1)
    assert "duplicate" in check_k_nice([(1, 0), (1, 0)], 1)
    assert "antipodal" in check_k_nice([(1, 0), (-1, 0)], 1)
    assert "pair_measure" in check_k_nice([(1, 0), (0, 1), (2, 1), (1, 2)], 2)


@given(st.lists(points, max_size=12), st.integers(0, 60))
@settings(max_examples=200)
def test_check_k_nice_reports_first_pair_like_pair_measure_scan(pts, k):
    # the measure check inlines pair_measure; it must report the same first
    # violating pair, with the same text, as a scan through pair_measure
    pts = [p for i, p in enumerate(pts) if not {p, (-p[0], -p[1])} & set(pts[:i])]
    want = next(
        (
            f"pair_measure{p, q} = {pair_measure(p, q)} > k = {k}"
            for i, p in enumerate(pts)
            for q in pts[i + 1 :]
            if pair_measure(p, q) > k
        ),
        None,
    )
    assert check_k_nice(pts, k) == want


def test_nice_set_validation_and_roundtrips():
    q = NiceSet.from_points([(1, 0), (0, 1), (1, 1)], 1)
    assert len(q) == 3 and (1, 1) in q
    assert NiceSet.from_points(reversed(q.points), 1) == q
    with pytest.raises(ValueError):
        NiceSet.from_points([(2, 1), (1, 2)], 2)


@given(st.integers(2, 8), unimods)
def test_apply_matrix_preserves_niceness(k, mat):
    q = NiceSet.from_points([(1, 0), (0, 1), (1, 1), (2, 1)], k)
    moved = apply_matrix(q, mat)
    assert len(moved) == len(q)
    assert check_k_nice(moved.points, k) is None


def test_normalize_y_nonneg_idempotent():
    q = NiceSet.from_points([(1, -2), (-1, 0), (0, 1)], 3)
    norm = normalize_y_nonneg(q)
    assert all(n > 0 or (n == 0 and m > 0) for m, n in norm.points)
    assert normalize_y_nonneg(norm) == norm
    assert len(norm) == len(q)


def test_height():
    q = NiceSet.from_points([(1, 0), (0, 1), (1, 1), (1, 2)], 2)
    assert height(q) == 2
    assert height(NiceSet.from_points([(3, -2), (1, 0)], 2)) == 2
    with pytest.raises(ValueError):
        height(NiceSet(k=1, points=()))


def test_convex_hull_and_area():
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = convex_hull(square)
    assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    assert hull_area(square) == 4
    assert hull_area([(0, 0), (3, 0)]) == 0
    assert hull_area([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)


@given(unimods)
def test_hull_area_unimodular_invariance(mat):
    pts = [(1, 0), (0, 1), (1, 1), (3, 1), (2, 3)]
    moved = [mat.apply(p) for p in pts]
    assert hull_area(moved) == hull_area(pts)


def test_shear_and_matmul():
    assert shear_power(1).apply((0, 1)) == (1, 1)
    assert shear_power(-2).apply((5, 1)) == (3, 1)
    ident = shear_power(3) @ shear_power(-3)
    assert ident.apply((7, 4)) == (7, 4)
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 2)


def test_maximal_closure_fills_row():
    q = NiceSet.from_points([(0, 1), (4, 1)], 4)
    closed = maximal_closure(q)
    for x in range(0, 5):
        assert (x, 1) in closed
    assert (1, 0) in closed
    assert is_hull_closed(closed)
    assert maximal_closure(closed) == closed


def test_maximal_closure_respects_gaps():
    # rows between two height-1 points can be real-nonempty but
    # integer-empty; the climb must continue past them
    q = NiceSet.from_points([(7, 2), (9, 2)], 4)
    closed = maximal_closure(q)
    assert (4, 1) in closed
    assert (8, 2) not in closed  # even x never coprime with 2
    assert is_hull_closed(closed)


def test_is_hull_closed_detects_missing():
    q = NiceSet.from_points([(1, 0), (0, 1), (2, 1)], 2)
    assert not is_hull_closed(q)  # (1,1) inside the hull but absent


def test_canonical_position_box():
    q = NiceSet.from_points([(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)], 4)
    closed = maximal_closure(q)
    canon = canonical_position(closed)
    k, h = 4, height(canon)
    assert (1, 0) in canon and (0, 1) in canon and (1, 1) in canon
    assert all(0 <= m <= k and 0 <= n <= h for m, n in canon.points)
    assert len(canon) == len(closed)


@given(st.integers(3, 10), st.integers(-2, 2))
@settings(max_examples=30, deadline=None)
def test_closure_of_sheared_row(k, t):
    base = NiceSet.from_points([(0, 1), (k, 1)], k)
    sheared = apply_matrix(base, shear_power(t))
    closed = maximal_closure(sheared)
    # at least the filled row, the x-axis point, and whatever fits above
    assert len(closed) >= k + 2
    assert check_k_nice(closed.points, k) is None
    assert is_hull_closed(closed)
    assert maximal_closure(closed) == closed
