"""Exact branch-and-bound for the maximum size at a fixed height.

compute(k, h, N) returns the maximum size of a k-nice set of height
exactly h when that maximum exceeds N, and N otherwise.  A set of
height h <= k can be normalized to live in {0..k} x {0..h} with (1,0),
(0,1) and (1,1) present, and a maximum-size set takes, in each occupied
row y = i, every x coprime to i between the row's extremes.  The
recursion therefore picks row endpoints (a, b) from the top row down,
tightening per-row admissible intervals as it goes, and prunes with
window-capped coprime-count upper bounds.

Two monotonicity facts keep the per-pair work small.  With b >= a and
i >= 1, row i's lower end under row ell's choice [a, b] is
max(L[i], ceil((b*i - k)/ell)), a function of b alone, and its upper end
min(U[i], floor((a*i + k)/ell)) is a function of a alone; both are
computed once per node or per a, not per pair.  Since the lower ends
only grow with b, row i's term at b = a bounds it for every pair with
that a.  An a's bound starts from the node's per-row maxima plus row
ell's widest window from a, swaps in a's terms row by row and drops a
once it is <= N; a surviving a's terms bound each pair in O(1).  Every
prune drops only candidates whose bound is <= N, so the recursion visits
the same improving paths in the same order as a plain per-pair scan.

max_size(k) combines the height <= 3 closed forms with per-height
verification: heights whose verdict is Verified cannot beat a smaller
height and are skipped, the rest are searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .closedform import best_low_height_set, height_le3_max
from .heights import verify_height
from .lattice import NiceSet

# (w, prefix, sparse) for one row; see IntervalTables.row
Row = tuple[int, list[int], list[list[int]]]


class IntervalTables:
    """Per-row coprime counts over [0, k] and window-capped maxima.

    count(i, a, b) is the number of z in [a, b] with gcd(z, i) = 1.
    window_max(i, a, b) is the maximum of count(i, a', b') over
    subintervals [a', b'] of [a, b] with (b' - a') * i <= k; it upper
    bounds the contribution of row i to any k-nice set confined to
    [a, b].  Tables are built lazily per row and hold for i >= 1 and
    0 <= a <= b <= k.  count and window_max validate their arguments;
    the search reads the raw tables through row().
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._rows: dict[int, Row] = {}

    def row(self, i: int) -> Row:
        """(w, prefix, sparse) for row i >= 1, unchecked.

        w = k // i is the widest admissible window minus one; prefix[z] is
        the number of coprimes to i in [0, z), for z in 0..k+1; sparse[j][t]
        is the largest count over a window [a', a' + w] with a' in
        [t, t + 2**j), so a range maximum of window starts is two reads.
        """
        entry = self._rows.get(i)
        if entry is None:
            k = self.k
            pre = [0] * (k + 2)
            acc = 0
            for z in range(k + 1):
                pre[z] = acc
                if gcd(z, i) == 1:
                    acc += 1
            pre[k + 1] = acc
            w = k // i
            g = [pre[a + w + 1] - pre[a] for a in range(k - w + 1)]
            sparse = [g]
            span = 1
            while 2 * span <= len(g):
                prev = sparse[-1]
                sparse.append(
                    [max(prev[t], prev[t + span]) for t in range(len(g) - 2 * span + 1)]
                )
                span *= 2
            entry = self._rows[i] = (w, pre, sparse)
        return entry

    def _check(self, i: int, a: int, b: int) -> None:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        if not (0 <= a <= b <= self.k):
            raise ValueError(f"bad interval [{a}, {b}] for k = {self.k}")

    def count(self, i: int, a: int, b: int) -> int:
        self._check(i, a, b)
        pre = self.row(i)[1]
        return pre[b + 1] - pre[a]

    def window_max(self, i: int, a: int, b: int) -> int:
        self._check(i, a, b)
        return _window_max(self.row(i), a, b)


def _window_max(row: Row, lo: int, hi: int) -> int:
    """window_max over [lo, hi] for a row returned by IntervalTables.row."""
    w, pre, sparse = row
    if hi - lo <= w:
        # the whole interval is admissible and dominates subintervals
        return pre[hi + 1] - pre[lo]
    last = hi - w
    j = (last - lo + 1).bit_length() - 1
    level = sparse[j]
    x, y = level[lo], level[last - (1 << j) + 1]
    return x if x > y else y


def _backtrack(
    k: int,
    h: int,
    N: int,
    ell: int,
    n_gt: int,
    L: list[int],
    U: list[int],
    tables: IntervalTables,
    choices: list[tuple[int, int, int]],
    best: list,
) -> int:
    """Best size above N with rows above ell fixed, contributing n_gt points.

    L[i]..U[i] is row i's admissible x-interval for i = 1..ell (index 0 is
    padding); the lists may run past ell, are only read, and the intervals
    only shrink as the recursion descends.
    """
    if ell == 0:
        # every path reaching the bottom was pruned against the current N,
        # so n_gt + 1 (the +1 is the point (1,0)) is a strict improvement
        best[0] = list(choices)
        return n_gt + 1
    rows = [None] + [tables.row(i) for i in range(1, ell)]
    base = n_gt + 1
    # full[i] bounds row i over [L[i], U[i]], so over every subinterval too
    full = [0] * ell
    for i in range(1, ell):
        if L[i] <= U[i]:
            full[i] = _window_max(rows[i], L[i], U[i])
    top = base + sum(full)
    if ell < h and top > N:
        # option: leave row ell empty (the top row h must stay occupied)
        N = _backtrack(k, h, N, ell - 1, n_gt, L, U, tables, choices, best)
    lo_ell, hi_ell = L[ell], U[ell]
    if lo_ell > hi_ell:
        return N
    # Choosing [a, b] for row ell confines row i < ell to
    # [max(L[i], ceil((b*i - k)/ell)), min(U[i], floor((a*i + k)/ell))];
    # the bounds from the other endpoint never bind because b >= a and
    # i >= 1.  So lower ends depend only on b (tabled once per node as
    # lows[b]) and upper ends only on a (computed once per a).  They are
    # lists, not tuples: dead tuples of these sizes stay on CPython's
    # tuple free lists and would add megabytes to the peak RSS.
    row_ell = tables.row(ell)
    w_ell, pre_ell = row_ell[0], row_ell[1]
    lows: dict[int, list[int]] = {}
    for b in range(lo_ell, hi_ell + 1):
        if gcd(b, ell) == 1:
            lows[b] = [0] + [max(L[i], -((k - b * i) // ell)) for i in range(1, ell)]
    for a in range(lo_ell, hi_ell + 1):
        lower_a = lows.get(a)
        if lower_a is None:
            continue
        # every b <= b_max keeps (b - a) * ell <= k and counts <= span in row
        # ell, and lows[b] >= lower_a; each swap of full[i] only lowers bound
        b_max = min(hi_ell, a + w_ell)
        span = pre_ell[b_max + 1] - pre_ell[a]
        bound = top + span
        for i in range(ell - 1, 0, -1):
            lo, hi = lower_a[i], min(U[i], (a * i + k) // ell)
            bound -= full[i]
            if lo <= hi:
                bound += _window_max(rows[i], lo, hi)
            if bound <= N:
                break
        if bound <= N:
            continue
        # rest + row ell's count bounds each pair (a, b) in O(1)
        rest = bound - span
        upper = [0] + [min(U[i], (a * i + k) // ell) for i in range(1, ell)]
        for b in range(a, b_max + 1):
            lower = lows.get(b)
            if lower is None:
                continue
            row_count = pre_ell[b + 1] - pre_ell[a]
            if rest + row_count <= N:
                continue
            np = base + row_count
            for i in range(1, ell):
                lo, hi = lower[i], upper[i]
                if lo <= hi:
                    np += _window_max(rows[i], lo, hi)
            if np <= N:
                continue
            choices.append((ell, a, b))
            N = _backtrack(
                k, h, N, ell - 1, n_gt + row_count, lower, upper, tables, choices, best
            )
            choices.pop()
    return N


def _witness_from_choices(k: int, choices: list[tuple[int, int, int]]) -> NiceSet:
    points: list[tuple[int, int]] = [(1, 0)]
    for ell, a, b in choices:
        points += [(z, ell) for z in range(a, b + 1) if gcd(z, ell) == 1]
    return NiceSet.from_points(points, k)


def compute_with_witness(
    k: int, h: int, N: int, tables: IntervalTables | None = None
) -> tuple[int, NiceSet | None]:
    """compute(k, h, N) plus the set behind an improved value, if any."""
    if not (2 <= h <= k):
        raise ValueError(f"need 2 <= h <= k, got h = {h}, k = {k}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if tables is None:
        tables = IntervalTables(k)
    elif tables.k != k:
        raise ValueError("tables were built for a different k")
    best: list = [None]
    choices: list[tuple[int, int, int]] = []
    lower = [0, 0] + [1] * (h - 1)
    upper = [0] + [k] * h
    result = _backtrack(k, h, N, h, 0, lower, upper, tables, choices, best)
    if result <= N or best[0] is None:
        return result, None
    witness = _witness_from_choices(k, best[0])
    if len(witness) != result:
        raise AssertionError("witness size disagrees with search result")
    return result, witness


def compute(k: int, h: int, N: int, tables: IntervalTables | None = None) -> int:
    """Maximum size of a k-nice set of height exactly h, if above N, else N."""
    return compute_with_witness(k, h, N, tables)[0]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the full per-height pipeline for one k."""

    k: int
    max_size: int
    witness: NiceSet | None
    per_height: tuple[tuple[int, str, int], ...]

    def to_json_dict(self) -> dict:
        out: dict = {"k": self.k, "max_size": self.max_size}
        if self.witness is not None:
            out["witness"] = [[m, n] for (m, n) in self.witness.points]
        out["per_height"] = [
            {"h": h, "action": action, "result": result}
            for (h, action, result) in self.per_height
        ]
        return out


def max_size(k: int) -> SearchOutcome:
    """Maximum size of a k-nice set for k >= 3, with provenance.

    Start from the height <= 3 closed form.  Any k-nice set can be
    normalized to height at most sqrt(2k), so sweeping h from 2 to
    floor(sqrt(2k)) covers everything: a Verified verdict at h means
    height-h sets never beat smaller heights (no search needed), and the
    remaining heights are searched exactly.
    """
    if k < 3:
        raise ValueError(f"max_size needs k >= 3, got {k}")
    N = height_le3_max(k)
    witness: NiceSet | None = best_low_height_set(k)
    tables = IntervalTables(k)
    per_height: list[tuple[int, str, int]] = []
    for h in range(2, isqrt(2 * k) + 1):
        verdict = verify_height(k, h)
        if verdict.verified:
            per_height.append((h, "skipped-verified", N))
            continue
        result, found = compute_with_witness(k, h, N, tables)
        if result > N:
            N = result
            witness = found
            per_height.append((h, "improved", N))
        else:
            per_height.append((h, "searched", N))
    if witness is not None and len(witness) != N:
        raise AssertionError("witness size disagrees with final maximum")
    return SearchOutcome(k=k, max_size=N, witness=witness, per_height=tuple(per_height))
