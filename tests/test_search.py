"""Branch-and-bound search over admissible row fillings."""

import dataclasses
import hashlib
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusk import heights, lattice, search
from torusk.closedform import best_low_height_set, height_le3_max, pattern_or_table
from torusk.errors import VerificationError
from torusk.heights import ROT, open_residues, reduce_height_sqrt2k, verify_height
from torusk.oracle import brute_force_max
from torusk.search import IntervalTables, compute, compute_with_witness, max_size


def naive_count(i, a, b):
    return sum(1 for z in range(a, b + 1) if gcd(z, i) == 1)


def table_row(tables, i):
    """Row i's (w, prefix, per) entries from the column store."""
    ws, pres, pers = tables.columns(i)
    return ws[i], pres[i], pers[i]


def table_count(tables, i, a, b):
    """Coprimes to i in [a, b], read from row i's prefix column."""
    assert i >= 1 and 0 <= a <= b <= tables.k, (i, a, b)
    pre = table_row(tables, i)[1]
    return pre[b + 1] - pre[a]


def table_window_max(tables, i, a, b):
    """Row i's window maximum over [a, b], read from its columns."""
    assert i >= 1 and 0 <= a <= b <= tables.k, (i, a, b)
    return search._window_max(*table_row(tables, i), a, b)


# sha256 of repr([table_row(tables, i) for i in range(1, 31)]), recorded
# from reference_row; repr also tells an int from a bool
ROW_DIGESTS = {
    3: "3ee93ecebdabe2be67444c9501fefa11535883885ecae298033c9bcf5f1fdb07",
    7: "19ed3226a2c3e2a43ae15294684f8d326bae51143d4c8229b449c9576a254880",
    96: "6f9ada56516b7d31c33754ab2984c927ee20daea500f6f1d4c55d096d82cd376",
    152: "1dcfe25aead46300f59b5106ce34b7e5cc4cdc09013ea169d9ae785c91448ea5",
    301: "598fd32f891ff199496db97b79c23f811bbafb416ff3abd7cb53f0b5acd78191",
}


def reference_row(k, i):
    """A row of IntervalTables.columns built element by element: one gcd
    per z in [0, k] for the prefix counts, naive_count for each window
    start, and each per[r][d] as the largest count over starts r..r+d
    read mod n."""
    pre = [0]
    for z in range(k + 1):
        pre.append(pre[-1] + (gcd(z, i) == 1))
    w = k // i
    n = min(i, k - w + 1)
    counts = [naive_count(i, s, s + w) for s in range(n)]
    twice = counts * 2
    per = [[max(twice[r : r + d + 1]) for d in range(n)] for r in range(n)]
    return w, pre, per


# 1, primes and prime powers up to 80
SPECIAL_ROWS = [1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31, 32, 49, 61, 64, 79]


class TestIntervalTables:
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=160),
            st.integers(min_value=1, max_value=3000),
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiled_rows_match_per_element_build(self, k, data):
        # columns() tiles one period of the coprime indicator and builds
        # the period table from rotations; the reference does neither
        m = min(k, 80)
        i = data.draw(st.one_of(
            st.sampled_from([r for r in SPECIAL_ROWS if r <= m]),
            st.integers(min_value=k // 2 + 1, max_value=m) if k // 2 < m else st.nothing(),
            st.integers(min_value=1, max_value=m),
        ))
        tables = IntervalTables(k)
        # repr also tells an int from a bool
        assert repr(table_row(tables, i)) == repr(reference_row(k, i))

    def test_small_tiled_rows_match_per_element_build(self):
        # every row to 30 for every k to 40, so rows i > k too, which have
        # fewer window starts than one period
        for k in range(1, 41):
            tables = IntervalTables(k)
            for i in range(1, 31):
                assert repr(table_row(tables, i)) == repr(reference_row(k, i)), (k, i)

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
        assert table_count(tables, i, a, b) == naive_count(i, a, b)

    @given(st.integers(min_value=1, max_value=200), st.data())
    @settings(max_examples=150, deadline=None)
    def test_window_max_matches_naive(self, k, data):
        # rows to k + 3, most often k, k + 1 and k + 2, and intervals that
        # cover i or more window starts, where the lookup reads the period's
        # largest count instead of per[lo % i][hi - w - lo]
        i = data.draw(st.one_of(
            st.sampled_from([k, k + 1, k + 2]),
            st.integers(min_value=1, max_value=k + 3),
        ))
        # one row alone: columns() would build every row below it as well
        w, pre, per, _ = search._row(k, i)
        wide = w + i - 1  # b - a at which [a, b] holds i window starts
        if wide <= k and data.draw(st.booleans()):
            a = data.draw(st.integers(min_value=0, max_value=k - wide))
            b = data.draw(st.integers(min_value=a + wide, max_value=k))
        else:
            a = data.draw(st.integers(min_value=0, max_value=k))
            b = data.draw(st.integers(min_value=a, max_value=k))
        want = max(
            naive_count(i, lo, min(lo + w, b))
            for lo in range(a, b + 1)
        )
        assert search._window_max(w, pre, per, a, b) == want

    @pytest.mark.parametrize("k", [1, 2, 7, 60, 97])
    def test_coprime_columns_match_gcd_scan(self, k):
        # rows built by two columns() calls, and rows past k, where the
        # list is shorter than a period
        tables = IntervalTables(k)
        tables.columns(k // 2)
        tables.columns(k + 3)
        assert len(tables.coprimes) == k + 4
        for i in range(1, k + 4):
            want = [z for z in range(k + 1) if gcd(z, i) == 1]
            assert tables.coprimes[i] == want, (k, i)

    @pytest.mark.parametrize("k", sorted(ROW_DIGESTS))
    def test_rows_match_recorded_tables(self, k):
        tables = IntervalTables(k)
        rows = repr([table_row(tables, i) for i in range(1, 31)])
        assert hashlib.sha256(rows.encode()).hexdigest() == ROW_DIGESTS[k]


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


@pytest.mark.parametrize("k", [1, 2])
def test_max_size_below_three_needs_no_search(monkeypatch, k):
    def no_search(*args, **kwargs):
        raise AssertionError(f"searched at k = {k}")

    monkeypatch.setattr(search, "verify_height", no_search)
    monkeypatch.setattr(search, "compute_with_witness", no_search)
    out = max_size(k)
    assert out.max_size == brute_force_max(k).max_size == pattern_or_table(k).value == k + 2
    assert out.per_height == ()
    assert len(out.witness.points) == out.max_size
    assert lattice.check_k_nice(out.witness.points, k) is None


def test_max_size_checks_its_witness(monkeypatch):
    # nothing beats the height <= 3 set at k = 13, so the final check
    # compares N(13) with that set's size
    def one_short(k):
        witness = best_low_height_set(k)
        return type(witness).from_points(sorted(witness.points)[1:], k)

    monkeypatch.setattr(search, "best_low_height_set", one_short)
    with pytest.raises(VerificationError, match=r"witness size 15 disagrees with N\(13\) = 16"):
        max_size(13)


def test_max_size_needs_k_at_least_one():
    with pytest.raises(ValueError, match=r"max_size needs k >= 1, got 0"):
        max_size(0)


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


def _certified_top_rows_max(k, h, N, tables, opened):
    """compute(k, h, N), but over only the top rows [a, b] that hold a
    point whose centred residue is not in opened: the root's pair loop
    written out, each kept pair's subtree searched exactly by
    search._backtrack."""
    ws, pres, pers = tables.columns(h)
    for a in range(k + 1):
        for b in range(a, min(k, a + k // h) + 1):
            row = [z for z in range(a, b + 1) if gcd(z, h) == 1]
            if not row or row[0] != a or row[-1] != b:
                continue
            if all(min(z % h, -z % h) in opened for z in row):
                continue
            low = [0, 0] + [1] * (h - 2)
            low = [max(low[i], -((k - b * i) // h)) for i in range(h)]
            up = [0] + [min(k, (a * i + k) // h) for i in range(1, h)]
            full = [0] + [
                search._window_max(ws[i], pres[i], pers[i], low[i], up[i])
                if low[i] <= up[i] else 0
                for i in range(1, h)
            ]
            if len(row) + 1 + sum(full) <= N:
                continue
            N = search._backtrack(
                k, h, N, h - 1, len(row), low, up, full, tables, [(h, a, b)], [None],
                0, False,
            )
    return N


def test_certified_top_rows_never_improve():
    # the cut drops every top row holding a point whose residue
    # open_residues leaves out; searching exactly over just those rows
    # must not beat N(k)
    searched = 0
    for k in range(3, 81):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            opened = open_residues(k, h)
            coprime = [x0 for x0 in range(1, h // 2 + 1) if gcd(x0, h) == 1]
            if opened and len(opened) < len(coprime):
                searched += 1
                assert _certified_top_rows_max(k, h, n_k, tables, opened) == n_k, (k, h)
    assert searched > 0
    # and the restricted search does reach N(k) where it can
    opened = open_residues(40, 7)
    assert _certified_top_rows_max(40, 7, 1, IntervalTables(40), opened) == 42


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


def _reference_backtrack(k, h, N, ell, n_gt, L, U, tables, choices, best, keep=None):
    """The recursion of search._backtrack as a plain per-pair scan.

    Every (a, b) pair is scored through the checked table_count and
    table_window_max,
    row i's interval is cut by both endpoints of row ell on both sides,
    and nothing is pruned but a pair (or an empty row) whose bound is <= N.
    With keep, only complete sets whose choices pass keep count.
    """
    if ell == 0:
        if keep is not None and not keep(choices):
            return N
        best[0] = list(choices)
        return n_gt + 1

    def score(lower, upper):
        return sum(
            table_window_max(tables, i, lower[i], upper[i])
            for i in range(1, ell)
            if lower[i] <= upper[i]
        )

    if ell < h and n_gt + 1 + score(L, U) > N:
        N = _reference_backtrack(
            k, h, N, ell - 1, n_gt, L, U, tables, choices, best, keep
        )
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
            row_count = table_count(tables, ell, a, b)
            if n_gt + 1 + row_count + score(lower, upper) <= N:
                continue
            choices.append((ell, a, b))
            N = _reference_backtrack(
                k, h, N, ell - 1, n_gt + row_count, lower, upper, tables, choices,
                best, keep,
            )
            choices.pop()
    return N


def _reference_compute(k, h, N, tables, keep=None):
    best = [None]
    lower = [0, 0] + [1] * (h - 1)
    upper = [0] + [k] * h
    result = _reference_backtrack(k, h, N, h, 0, lower, upper, tables, [], best, keep)
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


def _exact_max_size(k, floor=None):
    """max_size(k) with every searched height searched exactly: a sweep
    against floor, by default max(height_le3_max(k), N(k) - 1) from the
    table, and a second sweep from height_le3_max(k) if no height beats it.
    floor = height_le3_max(k) is the one-sweep search from the height <= 3
    value alone, which never reads the table."""
    low = height_le3_max(k)
    first = max(low, pattern_or_table(k).value - 1) if floor is None else floor
    tables = IntervalTables(k)
    for floor in (first, low):
        n, witness, per_height = low, best_low_height_set(k), []
        for h in range(2, isqrt(2 * k) + 1):
            if verify_height(k, h).verified:
                per_height.append((h, "skipped-verified", n))
                continue
            result, found = compute_with_witness(k, h, max(n, floor), tables)
            if result > max(n, floor):
                n, witness = result, found
                per_height.append((h, "improved", n))
            else:
                per_height.append((h, "searched", n))
        if n >= floor:
            break
    return search.SearchOutcome(k, n, witness, tuple(per_height))


def test_irreducibility_cut_keeps_max_size():
    # the cut's argument covers only the final maximum; per-height results
    # and the witness must match the exact searches too
    for k in range(3, 121):
        assert max_size(k) == _exact_max_size(k), k


def _table_off_by(monkeypatch, delta):
    """Make search read every tabulated N(k) moved by delta."""
    def moved(k):
        pv = pattern_or_table(k)
        return dataclasses.replace(pv, value=pv.value + delta)

    monkeypatch.setattr(search, "pattern_or_table", moved)


@pytest.mark.parametrize("k", [24, 49, 100, 120])
def test_overstated_table_falls_back_to_the_low_floor(monkeypatch, k):
    # with N(k) one too high, no height beats the first floor, and the
    # second sweep must give the one-sweep outcome from height_le3_max(k),
    # per_height included; k = 100 is not exceptional, so its floors
    # coincide.  The mutant that drops the second floor, looping over
    # (max(low, pattern_or_table(k).value - 1),) alone, returns
    # height_le3_max(k) with the height <= 3 witness at k = 24, 49 and 120
    want = _exact_max_size(k, floor=height_le3_max(k))
    _table_off_by(monkeypatch, 1)
    out = max_size(k)
    assert out == want
    assert out.max_size == pattern_or_table(k).value
    if k == 49:
        assert (5, "improved", 53) in out.per_height


def test_understated_table_still_finds_the_maximum(monkeypatch):
    # 125 at k = 120 puts the floor at 124; the search still reaches 126
    # with the witness of the one-sweep search
    want = _exact_max_size(120, floor=height_le3_max(120))
    _table_off_by(monkeypatch, -1)
    out = max_size(120)
    assert (out.max_size, out.witness) == (126, want.witness)


def test_max_size_scans_each_residue_once(monkeypatch):
    # a height's open residues decide both its skip and the cut, and a
    # second sweep reuses them: no (k, h, x0) is scanned twice per max_size
    real = heights._scan
    seen = set()

    def once(k, h, x0):
        assert (k, h, x0) not in seen, (k, h, x0)
        seen.add((k, h, x0))
        return real(k, h, x0)

    monkeypatch.setattr(heights, "_scan", once)
    for k in range(3, 121):
        seen.clear()
        max_size(k)
    _table_off_by(monkeypatch, 1)
    for k in (24, 49, 120):
        seen.clear()
        max_size(k)
        assert seen


@pytest.mark.slow
def test_irreducibility_cut_keeps_max_size_to_400():
    # opt-in (pytest -m slow): about 4 min on a 2-core host
    for k in range(121, 401):
        assert max_size(k) == _exact_max_size(k), k


def test_irreducibility_cut_drops_only_reducible_sets():
    # where the cut lowers a height's result, every set of the exact
    # maximum is reducible, so the exact witness is: its top row's shear
    # and a quarter turn take it below height h
    lowered = 0
    for k in range(13, 61):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            for baseline in (1, k + 2, n_k - 1):
                exact, witness = compute_with_witness(k, h, baseline, tables)
                cut = compute_with_witness(
                    k, h, baseline, tables, irreducible_only=True
                )[0]
                assert baseline <= cut <= exact, (k, h, baseline)
                if cut == exact:
                    continue
                lowered += 1
                x0 = min(m for m, n in witness.points if n == h)
                t = -((2 * x0 + h) // (2 * h))
                turned = lattice.apply_matrix(
                    lattice.apply_matrix(witness, lattice.shear_power(t)), ROT
                )
                assert lattice.height(lattice.normalize_y_nonneg(turned)) < h, (
                    k, h, baseline)
    assert lowered > 0


def _leaves_strip(choices):
    """Whether a set's row endpoints leave |x + t*y| < h, with t the shear
    that centres the least top point, as heights.reduce_height_sqrt2k does."""
    h, a_top, _ = choices[0]
    t = -((2 * a_top + h) // (2 * h))
    return any(b + t * ell >= h or a + t * ell <= -h for ell, a, b in choices)


def _kept_by_cut(k, h):
    """The irreducibility cut in full, as a filter on a set's choices: the
    set leaves the strip, and every coprime point of its top row has a
    centred residue that heights.open_residues leaves open."""
    opened = open_residues(k, h)

    def keep(choices):
        _, a, b = choices[0]
        return _leaves_strip(choices) and all(
            min(z % h, -z % h) in opened for z in range(a, b + 1) if gcd(z, h) == 1
        )

    return keep


def test_irreducibility_cut_matches_filtered_pair_scan():
    # the cut may only skip subtrees without a set that it keeps: value and
    # witness must be those of a plain scan that counts only the sets that
    # leave the strip and have no certified top point (baseline 1 is left
    # out: where no set is kept, the plain scan never raises N and walks
    # the whole tree)
    for k in range(13, 39):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            for baseline in (k + 2, n_k - 1):
                want = _reference_compute(k, h, baseline, tables, _kept_by_cut(k, h))
                got = compute_with_witness(
                    k, h, baseline, tables, irreducible_only=True
                )
                assert got == want, (k, h, baseline)


class _CountedList(list):
    """A table row that counts its element reads."""

    reads = 0

    def __getitem__(self, index):
        _CountedList.reads += 1
        return list.__getitem__(self, index)


@pytest.fixture
def counted_tables(monkeypatch):
    """Count every prefix and period-table element the search reads."""
    real = IntervalTables.columns

    def counted_columns(self, n):
        _, pres, pers = columns = real(self, n)
        for i in range(1, len(pres)):
            if type(pres[i]) is not _CountedList:
                pres[i] = _CountedList(pres[i])
                pers[i] = [_CountedList(p) for p in pers[i]]
        return columns

    monkeypatch.setattr(IntervalTables, "columns", counted_columns)
    monkeypatch.setattr(_CountedList, "reads", 0)


def test_search_prune_work_stays_pinned(counted_tables):
    # A prune that weakens without changing answers (say, an early exit
    # that lets a bound equal to N through, a child handed a looser row
    # bound than its own intervals give, or a b loop that forgets the
    # count cap of a stopped pair) passes the plain-scan test, so count
    # the table reads of a fixed sweep: every prefix and period-table
    # element the search reads, wherever its window lookups are written.
    # 98,140 is the count with every prune dropping bounds <= N, each
    # child handed its pair's row terms and b jumping past both caps,
    # both loops walking the rows densest first, and a taken from row ell's
    # coprime list, which costs two prefix reads per node.
    for k in range(40, 49):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            compute(k, h, n_k - 1, tables)
    assert 0 < _CountedList.reads <= 98_140


def test_irreducibility_cut_work_stays_pinned(counted_tables):
    # the same for the cut, which skips subtrees that stay inside the strip
    # |x + t*y| < h and top rows that hold a certified residue: max_size
    # reads more than 25,203 with a cut without its pair gate (25,327), with
    # a top row checked only at its least point (26,407) and with b_max left
    # uncapped, so that only the b loop stops before the next certified
    # point (25,454); only a low baseline leaves rows empty often enough
    # that a cut without its empty-row gate reads more than 301,594
    # (303,176), and the uncapped b_max reads 301,818 there
    for k in range(40, 49):
        max_size(k)
    assert 0 < _CountedList.reads <= 25_203
    _CountedList.reads = 0
    for k in range(40, 49):
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            compute_with_witness(k, h, 1, tables, irreducible_only=True)
    assert 0 < _CountedList.reads <= 301_594


def test_passed_down_bounds_match_recomputed(monkeypatch):
    # each node reads its rows' window maxima from the full list its parent
    # hands down instead of recomputing them; they must be exactly the
    # maxima over the node's own intervals, or prunes start from a wrong bound
    real = search._backtrack
    nodes = 0

    def checking(k, h, N, ell, n_gt, L, U, full, tables, choices, best, t, inside):
        nonlocal nodes
        nodes += 1
        for i in range(1, ell):
            want = table_window_max(tables, i, L[i], U[i]) if L[i] <= U[i] else 0
            assert full[i] == want, (k, h, ell, i)
        return real(k, h, N, ell, n_gt, L, U, full, tables, choices, best, t, inside)

    monkeypatch.setattr(search, "_backtrack", checking)
    for k in range(13, 41):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            for baseline in (1, n_k - 1):
                compute(k, h, baseline, tables)
    assert nodes > 0


def test_node_intervals_match_fixed_rows(monkeypatch):
    # each node's intervals are handed down (lower ends kept from its
    # parent's pair scoring, upper ends from its a loop) instead of being
    # derived from the fixed rows; they must be exactly what the fixed rows
    # allow when the node starts, and still be so when it returns, since a
    # node and its subtree only read them
    real = search._backtrack
    nodes = 0

    def checking(k, h, N, ell, n_gt, L, U, full, tables, choices, best, t, inside):
        nonlocal nodes
        if ell == h:
            return real(k, h, N, ell, n_gt, L, U, full, tables, choices, best, t, inside)
        nodes += 1
        want = []
        for i in range(1, ell + 1):
            lo = 0 if i == 1 else 1
            hi = k
            for m, a, b in choices:
                lo = max(lo, -((k - b * i) // m))  # ceil((b*i - k)/m)
                hi = min(hi, (a * i + k) // m)
            want.append((lo, hi))
        where = (k, h, N, list(choices), ell)
        assert list(zip(L[1 : ell + 1], U[1 : ell + 1])) == want, where
        result = real(k, h, N, ell, n_gt, L, U, full, tables, choices, best, t, inside)
        assert list(zip(L[1 : ell + 1], U[1 : ell + 1])) == want, where
        return result

    monkeypatch.setattr(search, "_backtrack", checking)
    for k in range(13, 41):
        n_k = pattern_or_table(k).value
        tables = IntervalTables(k)
        for h in range(2, isqrt(2 * k) + 1):
            for baseline in (1, n_k - 1):
                compute(k, h, baseline, tables)
    assert nodes > 0
