"""Branch-and-bound search over admissible row fillings."""

from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusk import lattice, search
from torusk.closedform import pattern_or_table
from torusk.heights import ROT, reduce_height_sqrt2k, verify_height
from torusk.oracle import brute_force_max
from torusk.search import IntervalTables, compute, compute_with_witness, max_size


def naive_count(i, a, b):
    return sum(1 for z in range(a, b + 1) if gcd(z, i) == 1)


class TestIntervalTables:
    @given(
        st.integers(min_value=1, max_value=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_matches_naive(self, k, data):
        i = data.draw(st.integers(min_value=1, max_value=min(k, 8)))
        a = data.draw(st.integers(min_value=0, max_value=k))
        b = data.draw(st.integers(min_value=a, max_value=k))
        tables = IntervalTables(k)
        assert tables.count(i, a, b) == naive_count(i, a, b)

    @given(
        st.integers(min_value=2, max_value=24),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_max_matches_naive(self, k, data):
        i = data.draw(st.integers(min_value=1, max_value=min(k, 6)))
        a = data.draw(st.integers(min_value=0, max_value=k))
        b = data.draw(st.integers(min_value=a, max_value=k))
        tables = IntervalTables(k)
        w = k // i
        want = max(
            naive_count(i, lo, min(lo + w, b))
            for lo in range(a, b + 1)
        )
        assert tables.window_max(i, a, b) == want

    def test_count_bounds_checked(self):
        tables = IntervalTables(10)
        with pytest.raises(ValueError):
            tables.count(2, -1, 5)
        with pytest.raises(ValueError):
            tables.count(2, 3, 11)
        with pytest.raises(ValueError):
            tables.count(0, 0, 5)
        with pytest.raises(ValueError):
            tables.window_max(0, 0, 5)
        with pytest.raises(ValueError):
            tables.window_max(-2, 0, 10)


def test_compute_improves_over_weak_baseline():
    # k = 24 at height 5 reaches 30 from any baseline below it
    assert compute(24, 5, 26) == 30
    assert compute(24, 5, 29) == 30


def test_compute_searches_exact_height():
    # the top row is always occupied, so h = 6 only sees height-6 sets,
    # and for k = 24 none of those beats the flat 26
    assert compute(24, 6, 4) == 26


def test_compute_keeps_strong_baseline():
    # nothing of height <= 4 beats 30 for k = 24
    assert compute(24, 4, 30) == 30


def test_compute_monotone_in_baseline():
    for n in range(24, 33):
        assert compute(24, 5, n) == max(30, n)


def test_compute_witness_is_valid():
    size, witness = compute_with_witness(24, 5, 26)
    assert size == 30
    assert witness is not None
    assert len(witness.points) == 30
    assert lattice.check_k_nice(witness.points, 24) is None
    assert lattice.height(witness) == 5


def test_compute_no_improvement_returns_none_witness():
    size, witness = compute_with_witness(24, 4, 30)
    assert size == 30
    assert witness is None


def test_compute_validates_arguments():
    with pytest.raises(ValueError):
        compute(5, 1, 4)
    with pytest.raises(ValueError):
        compute(5, 6, 4)
    with pytest.raises(ValueError):
        compute(5, 2, 0)


@pytest.mark.parametrize("k", list(range(3, 41)))
def test_max_size_small_range(k):
    out = max_size(k)
    assert out.max_size == pattern_or_table(k).value
    assert out.witness is not None
    assert len(out.witness.points) == out.max_size
    assert lattice.check_k_nice(out.witness.points, k) is None


def test_max_size_outcome_shape():
    out = max_size(24)
    assert out.k == 24
    assert out.max_size == 30
    heights = [h for h, _, _ in out.per_height]
    assert heights == list(range(2, isqrt(48) + 1))
    d = out.to_json_dict()
    assert d["k"] == 24
    assert d["max_size"] == 30
    assert len(d["witness"]) == 30
    assert all(set(row) == {"h", "action", "result"} for row in d["per_height"])


def test_max_size_extremal_witness_height():
    # the only way to 30 at k = 24 is higher than 3
    out = max_size(24)
    assert lattice.height(out.witness) > 3


@pytest.mark.parametrize("k", list(range(3, 13)))
def test_fixed_height_search_matches_oracle(k):
    # the flat k + 2 stands for heights 0 and 1; above that, searching
    # every height up to h must reach the brute-force maximum capped at h
    for h in range(2, isqrt(2 * k) + 1):
        searched = max(compute(k, hp, 1) for hp in range(2, h + 1))
        assert max(k + 2, searched) == brute_force_max(k, h_cap=h).max_size


def test_skipped_heights_never_improve():
    # max_size skips heights that verify_height certifies; searching them
    # anyway must not beat N(k)
    skipped = 0
    for k in range(3, 81):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            if verify_height(k, h).verified:
                skipped += 1
                assert compute(k, h, n_k, tables) == n_k, (k, h)
    assert skipped > 0


@st.composite
def nice_sets(draw):
    """A random k-nice set: coprime points of a low box, each kept when it
    stays compatible with those kept before it, then moved by random shears
    and quarter turns so that tall and lopsided sets occur too."""
    k = draw(st.integers(3, 14))
    coords = st.tuples(st.integers(-k, k), st.integers(0, 2))
    kept: list[tuple[int, int]] = []
    for m, n in draw(st.lists(coords, min_size=8, max_size=40)):
        if gcd(m, n) == 1 and lattice.check_k_nice(kept + [(m, n)], k) is None:
            kept.append((m, n))
    if not kept:
        kept = [(1, 0)]
    q = lattice.NiceSet.from_points(kept, k)
    for t in draw(st.lists(st.integers(-3, 3), max_size=3)):
        q = lattice.apply_matrix(q, lattice.shear_power(t))
        q = lattice.apply_matrix(q, ROT)
    return q


@given(nice_sets())
@settings(max_examples=150, deadline=None)
def test_canonical_box_holds_every_maximal_set(q):
    # search and oracle enumerate only sets inside {0..k} x {0..isqrt(2k)}
    # that contain (1, 0), (0, 1) and (1, 1); every k-nice set must extend
    # to a maximal one that lands there
    k = q.k
    low = reduce_height_sqrt2k(q)
    closed = lattice.maximal_closure(lattice.normalize_y_nonneg(low))
    canon = lattice.canonical_position(reduce_height_sqrt2k(closed))
    assert len(canon) == len(closed) >= len(q)
    assert {(1, 0), (0, 1), (1, 1)} <= set(canon.points)
    assert all(0 <= m <= k and 0 <= n <= isqrt(2 * k) for m, n in canon.points)


def _reference_backtrack(k, h, N, ell, n_gt, L, U, tables, choices, best):
    """The recursion of search._backtrack as a plain per-pair scan.

    Every (a, b) pair is scored through the validated IntervalTables API,
    row i's interval is cut by both endpoints of row ell on both sides,
    and nothing is pruned but a pair (or an empty row) whose bound is <= N.
    """
    if ell == 0:
        best[0] = list(choices)
        return n_gt + 1

    def score(lower, upper):
        return sum(
            tables.window_max(i, lower[i], upper[i])
            for i in range(1, ell)
            if lower[i] <= upper[i]
        )

    if ell < h and n_gt + 1 + score(L, U) > N:
        N = _reference_backtrack(k, h, N, ell - 1, n_gt, L, U, tables, choices, best)
    for a in range(L[ell], U[ell] + 1):
        for b in range(a, U[ell] + 1):
            if gcd(a, ell) != 1 or gcd(b, ell) != 1 or (b - a) * ell > k:
                continue
            lower = [0] + [
                max(L[i], -((k - a * i) // ell), -((k - b * i) // ell))
                for i in range(1, ell)
            ]
            upper = [0] + [
                min(U[i], (a * i + k) // ell, (b * i + k) // ell)
                for i in range(1, ell)
            ]
            row_count = tables.count(ell, a, b)
            if n_gt + 1 + row_count + score(lower, upper) <= N:
                continue
            choices.append((ell, a, b))
            N = _reference_backtrack(
                k, h, N, ell - 1, n_gt + row_count, lower, upper, tables, choices, best
            )
            choices.pop()
    return N


def _reference_compute(k, h, N, tables):
    best = [None]
    lower = [0, 0] + [1] * (h - 1)
    upper = [0] + [k] * h
    result = _reference_backtrack(k, h, N, h, 0, lower, upper, tables, [], best)
    if result <= N:
        return result, None
    points = [(1, 0)] + [
        (z, ell) for ell, a, b in best[0] for z in range(a, b + 1) if gcd(z, ell) == 1
    ]
    return result, lattice.NiceSet.from_points(points, k)


def test_search_prunes_match_plain_pair_scan():
    # the per-a bound and the pair pre-filter may only skip work: value and
    # witness must be those of scoring every pair
    for k in range(13, 49):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            for baseline in (1, k + 2, n_k - 1):
                want = _reference_compute(k, h, baseline, tables)
                assert compute_with_witness(k, h, baseline, tables) == want, (
                    k, h, baseline)


def test_search_prune_work_stays_pinned(monkeypatch):
    # A prune that weakens without changing answers (say, a per-a early exit
    # that lets a bound equal to N through) passes the plain-scan test, so
    # count the row lookups of a fixed sweep: 43,718 is the count with every
    # prune dropping bounds <= N (97,010 before the per-a early exit).
    calls = 0
    real = search._window_max

    def counting(row, lo, hi):
        nonlocal calls
        calls += 1
        return real(row, lo, hi)

    monkeypatch.setattr(search, "_window_max", counting)
    for k in range(40, 49):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            compute(k, h, n_k - 1, tables)
    assert calls <= 43_718
