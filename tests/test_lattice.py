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


def _plain_check_k_nice(pts, k):
    """check_k_nice with the measure condition decided by scanning every pair."""
    seen = set()
    for p in pts:
        m, n = p
        if m == 0 and n == 0:
            return "contains (0, 0)"
        if gcd(m, n) != 1:
            return f"non-coprime point {p}"
        if p in seen:
            return f"duplicate point {p}"
        if (-m, -n) in seen:
            return f"antipodal pair {(-m, -n)} and {p}"
        seen.add(p)
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if pair_measure(p, q) > k:
                return f"pair_measure{p, q} = {pair_measure(p, q)} > k = {k}"
    return None


def _one_point_moved(pts, k):
    """pts with its last point replaced (or, for one point, joined) by a point
    p' with pair_measure(p', pts[0]) = k + 1.  With x*b - a*y = 1 for
    pts[0] = (a, b), p' = (k + 1)*(x, y) + (a, b) is coprime."""
    a, b = pts[0]
    g, x, y = _ext_gcd(b, -a)
    assert g == 1
    moved = ((k + 1) * x + a, (k + 1) * y + b)
    assert pair_measure(moved, pts[0]) == k + 1 and gcd(*moved) == 1
    return pts[:-1] + [moved] if len(pts) > 1 else pts + [moved]


def _ext_gcd(u, v):
    """(g, x, y) with u*x + v*y = g = gcd(u, v) >= 0."""
    if v == 0:
        return (abs(u), 1 if u >= 0 else -1, 0)
    g, x, y = _ext_gcd(v, u % v)
    return g, y, x - (u // v) * y


wide_points = st.tuples(st.integers(-300, 300), st.integers(-300, 300)).filter(
    lambda p: gcd(p[0], p[1]) == 1
)


@st.composite
def collinear_points(draw):
    """Coprime points on one line c + t*d that misses the origin."""
    c = draw(wide_points)
    d = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda d: d != (0, 0)))
    ts = draw(st.lists(st.integers(-40, 40), unique=True, max_size=80))
    line = [(c[0] + t * d[0], c[1] + t * d[1]) for t in ts]
    return [p for p in line if gcd(*p) == 1] or [c]


def _antipode_free(pts):
    return [p for i, p in enumerate(pts) if not {p, (-p[0], -p[1])} & set(pts[:i])]


@given(
    st.one_of(
        st.lists(wide_points, min_size=1, max_size=2),
        st.lists(wide_points, max_size=80),
        collinear_points(),
    ).map(_antipode_free),
    st.integers(-2, 2),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_hull_measure_check_matches_pair_scan(pts, offset, moved):
    # k sits next to the set's largest pair measure, so both verdicts occur
    top = max((pair_measure(p, q) for p in pts for q in pts), default=0)
    k = max(0, top + offset)
    if moved and pts:
        pts = _one_point_moved(pts, k)
    assert check_k_nice(pts, k) == _plain_check_k_nice(pts, k)


def _known_sets():
    from torusk.closedform import EXTREMAL_K, construct_extremal
    from torusk.search import max_size

    yield from ((k, list(max_size(k).witness.points)) for k in range(3, 61))
    yield from ((k, list(construct_extremal(k).points)) for k in EXTREMAL_K)


def test_hull_measure_check_matches_pair_scan_on_known_sets():
    for k, pts in _known_sets():
        assert check_k_nice(pts, k) is None
        moved = _one_point_moved(pts, k)
        want = _plain_check_k_nice(moved, k)
        assert want is not None
        assert check_k_nice(moved, k) == want, k


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


def _reference_hull(points):
    """Monotone chain with a cross-product helper per step."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


small_points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@st.composite
def hull_inputs(draw):
    """Point lists with repeats, collinear runs or at most two distinct
    points, in a shuffled order."""
    kind = draw(st.sampled_from(["scatter", "runs", "two"]))
    if kind == "two":
        pair = draw(st.lists(small_points, min_size=1, max_size=2))
        pts = draw(st.lists(st.sampled_from(pair), max_size=6))
    else:
        pts = draw(st.lists(small_points, max_size=25))
        for _ in range(draw(st.integers(0 if kind == "scatter" else 1, 3))):
            (x, y), (dx, dy) = draw(small_points), draw(small_points)
            pts += [(x + t * dx, y + t * dy) for t in range(draw(st.integers(2, 7)))]
        pts += draw(st.lists(st.sampled_from(pts), max_size=5)) if pts else []
    return draw(st.permutations(pts))


@given(hull_inputs())
@settings(max_examples=300, deadline=None)
def test_convex_hull_matches_reference_chain(points):
    assert convex_hull(points) == _reference_hull(points)


@st.composite
def small_nice_sets(draw):
    k = draw(st.integers(1, 8))
    kept = []
    for p in draw(st.lists(st.tuples(st.integers(-k, k), st.integers(0, 3)), max_size=30)):
        if gcd(*p) == 1 and check_k_nice(kept + [p], k) is None:
            kept.append(p)
    return NiceSet.from_points(kept, k)


@given(small_nice_sets())
@settings(max_examples=100, deadline=None)
def test_convex_hull_of_nice_set_matches_reference_chain(q):
    assert convex_hull(q.points) == _reference_hull(q.points)


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
