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
min(U[i], floor((a*i + k)/ell)) is a function of a alone.  Since the
lower ends only grow with b, row i's term (its window maximum) at b = a
bounds it for every pair with that a.  Each node gets from its parent
every row's window maximum over that row's interval and gathers one
descriptor per row below it (index, interval, window maximum and the
row's tables), zipping its interval lists with the per-k table columns
of IntervalTables.columns.  Both loops walk these rows densest first,
by window maximum, largest first: the rows with the most points have
the most to lose to a's and b's cuts, so a bound that falls to N tends
to get there in fewer rows.  The a loop walks row ell's coprime list
between the row's ends, so a never lands on a z sharing a factor with
ell.  An a's bound starts from the sum of those maxima plus row ell's
widest window from a, swaps in a's terms row by row and drops a once it
is <= N.  A surviving a's terms plus row ell's count bound each pair in
O(1); a pair past that is scored by swapping each row's term at a for
its term at (a, b), with the row's lower end at b computed and kept in
the loop, again stopping at <= N.  A pair that descends has scored every
row, so its kept lower ends and its terms are exactly the child's lower
ends and window maxima, and both are handed down instead of recomputed.
For a fixed a, row ell's count only grows with b and every other row's
term only shrinks, so a pair stopped at partial bound np <= N also stops
every later b whose count is at most its own plus N - np; b jumps by
bisection to the first count above that cap and above N minus the a's
bound without row ell.  Every prune drops only candidates whose bound is
<= N, and each swap only lowers a bound, so in any row order the
recursion visits the same improving paths in the same order as a plain
per-pair scan; the order moves only where a loop stops and how far b
jumps.

The row tables are periodic: gcd(z + i, i) = gcd(z, i), so row i's
coprime indicator and its window counts repeat every i.
IntervalTables.columns tiles one period of the indicator to full length
and reads the row's prefix counts and coprime list off it, and keeps the
window counts as one period table: the largest count over each run of
window starts, read mod i, so a window maximum is one read.

max_size(k) combines the height <= 3 closed forms with per-height
verification: heights whose verdict is Verified cannot beat a smaller
height and are skipped, the rest are searched with the irreducibility
cut, against one below the tabulated N(k) and, if nothing beats that,
again from the height <= 3 value (see max_size).  A top-row pair (a, b)
fixes the shear t = -((2a + h) // (2h)) that heights.reduce_height_sqrt2k
uses to centre the least top point, and a node whose completions all
keep |x + t*y| < h is dropped: shearing by t and turning a quarter takes
every such set below height h.  The cut also drops every top row
holding a point z whose centred residue |z + t_z*h|
heights.open_residues leaves out, t_z being z's own centring shear: that
residue's certificate takes the set, mirrored by x -> -x if the residue is
negative, below height h.  From a table built once per height, the root
skips such an a and ends b before the next one.  The result is at most
the exact per-height maximum, and max_size's final N(k) is still exact
(see max_size); compute and compute_with_witness without irreducible_only
return the exact per-height maximum.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from math import gcd, isqrt
from operator import itemgetter, sub

from .closedform import (
    best_low_height_set, construct_height1, height_le3_max, pattern_or_table,
)
from .errors import VerificationError
from .heights import open_residues, verify_height
from .lattice import NiceSet


class IntervalTables:
    """Per-row coprime tables over [0, k]: three columns by row, plus each
    row's coprime list, and each height's open residues for the cut.

    Row i's window maximum over [a, b] is the largest number of z coprime
    to i in a subinterval [a', b'] with (b' - a') * i <= k; it bounds row
    i's contribution to any k-nice set confined to [a, b].  Row i's
    entries are w = k // i, the widest admissible window minus one;
    prefix, where prefix[z] counts the coprimes to i in [0, z) for z in
    0..k+1; and per, where per[r][d] is the largest count over a window
    [a', a' + w] with a' in r..r+d read mod n, for n = min(i, k - w + 1)
    window starts (n = i whenever i <= k).  Window counts repeat every i,
    so a range of window starts [lo, hi - w] is the one read
    per[lo % n][hi - w - lo], and a range of n or more starts holds the
    period's largest count, per[r][-1] (_window_max).
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # index 0 is padding, so column[i] is row i's entry
        self._columns: tuple[list, list, list] = ([0], [[]], [[]])
        # coprimes[i] lists the z in [0, k] with gcd(z, i) = 1, ascending, so
        # coprimes[i][prefix[a]:prefix[b + 1]] are those in [a, b]
        self.coprimes: list[list[int]] = [[]]
        # opened[h]: heights.open_residues(k, h), kept by max_size for both
        # of its sweeps and the cut
        self.opened = {}

    def columns(self, n: int) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
        """The (w, prefix, per) column lists, built out to row n together
        with coprimes; a search node slices them next to its own interval
        bounds."""
        ws, pres, pers = columns = self._columns
        for i in range(len(ws), n + 1):
            w, pre, per, coprimes = _row(self.k, i)
            ws.append(w)
            pres.append(pre)
            pers.append(per)
            self.coprimes.append(coprimes)
        return columns


def _row(k: int, i: int) -> tuple[int, list[int], list[list[int]], list[int]]:
    """Row i's (w, prefix, per) entries and coprime list over [0, k]."""
    w = k // i
    mask = ([gcd(z, i) == 1 for z in range(i)] * (w + 1))[: k + 1]
    pre = list(accumulate(mask, initial=0))
    # one period of window counts, or all of them when there are fewer
    # (only for i > k, where no read wraps)
    level = list(map(sub, pre[w + 1 : w + 1 + i], pre[:i]))
    per = [list(accumulate(level[r:] + level[:r], max)) for r in range(len(level))]
    return w, pre, per, list(compress(range(k + 1), mask))


def _window_max(w: int, pre: list[int], per: list[list[int]], lo: int, hi: int) -> int:
    """Row window maximum over [lo, hi] from the row's column entries."""
    if hi - lo <= w:
        # the whole interval is admissible and dominates subintervals
        return pre[hi + 1] - pre[lo]
    d = hi - w - lo
    n = len(per)
    return per[lo % n][d if d < n else -1]


def _backtrack(
    k: int,
    h: int,
    N: int,
    ell: int,
    n_gt: int,
    L: list[int],
    U: list[int],
    full: list[int],
    tables: IntervalTables,
    choices: list[tuple[int, int, int]],
    best: list,
    t: int,
    inside: bool,
) -> int:
    """Best size above N with rows above ell fixed, contributing n_gt points.

    L[i]..U[i] is row i's admissible x-interval for i = 1..ell (index 0 is
    padding), and full[i] for 1 <= i < ell is row i's window maximum over
    it (0 when the interval is empty).  The lists may run past ell, are
    only read, and the intervals only shrink as the recursion descends.
    While inside is set, every fixed point has |x + t*y| < h, and only
    completions that leave that strip are searched.  At the root it is False
    or the cut's table: inside[c] steps from c to the next class mod h with
    a certified centred residue (0 for c), and each top-row a picks its t.
    """
    if ell == 0:
        # every path reaching the bottom was pruned against the current N,
        # so n_gt + 1 (the +1 is the point (1,0)) is a strict improvement
        best[0] = list(choices)
        return n_gt + 1
    base = n_gt + 1
    # full[i] bounds row i over [L[i], U[i]], so over every subinterval too
    top = base + sum(full[:ell])
    if ell < h and top > N and not (inside and _stays_inside(h, t, ell, L, U)):
        # option: leave row ell empty (the top row h must stay occupied);
        # rows below keep their intervals and so their bounds
        N = _backtrack(
            k, h, N, ell - 1, n_gt, L, U, full, tables, choices, best, t, inside
        )
    lo_ell, hi_ell = L[ell], U[ell]
    if lo_ell > hi_ell:
        return N
    # Choosing [a, b] for row ell confines row i < ell to
    # [max(L[i], ceil((b*i - k)/ell)), min(U[i], floor((a*i + k)/ell))];
    # the bounds from the other endpoint never bind because b >= a and
    # i >= 1.  So upper ends depend only on a and lower ends only on b, and
    # since lower ends only grow with b, row i's term at b = a bounds it
    # for every pair with that a.  desc holds one descriptor per row,
    # (i, L[i], U[i], full[i]) and the row's tables, densest row first:
    # by full[i], largest first, ties by ascending i.  Every swap only
    # lowers a bound, so any order prunes the same candidates, and rows
    # with the largest maxima tend to lose the most and stop a loop soonest.
    # Per node, terms[i] and upper[i] hold row i's term and upper end at
    # the current a, and low[i] and sub[i] its lower end and term at the
    # current pair, kept while the pair is scored; a pair that descends has
    # scored every row, so the child gets low, upper and sub as its L, U and
    # full, and reads them only until it returns.  They are lists, not
    # tuples: dead tuples of these sizes stay on CPython's tuple free lists
    # and would add megabytes to the peak RSS.  a walks the coprimes to ell
    # in [L[ell], U[ell]], a slice of row ell's coprime list, and the window
    # lookups are _window_max inlined, with len(per) = i since i < h <= k.
    ws, pres, pers = tables.columns(ell)
    desc = sorted(
        zip(range(1, ell), L[1:ell], U[1:ell], full[1:ell], ws[1:ell], pres[1:ell],
            pers[1:ell]),
        key=itemgetter(3), reverse=True,
    )
    w_ell, pre_ell = ws[ell], pres[ell]
    root_cut = inside and ell == h
    terms = [0] * ell
    upper = [0] * ell
    low = [0] * ell
    sub = [0] * ell
    for a in tables.coprimes[ell][pre_ell[lo_ell] : pre_ell[hi_ell + 1]]:
        # every b <= b_max keeps (b - a) * ell <= k and counts <= span in
        # row ell; swapping full[i] for row i's term at a only lowers bound
        b_max = a + w_ell
        if root_cut:  # skip a certified a, or end the row before the next one
            d = inside[a % h]
            if not d:
                continue
            if d <= w_ell:
                b_max = a + d - 1
            t = -((2 * a + h) // (2 * h))
        if b_max > hi_ell:
            b_max = hi_ell
        span = pre_ell[b_max + 1] - pre_ell[a]
        bound = top + span
        for i, lo, hi, x_full, w, pre, per in desc:
            ai = a * i
            end = -((k - ai) // ell)
            if end > lo:
                lo = end
            end = (ai + k) // ell
            if end < hi:
                hi = end
            upper[i] = hi
            if lo > hi:
                x = 0
            elif hi - lo <= w:
                x = pre[hi + 1] - pre[lo]
            else:
                d = hi - w - lo
                x = per[lo % i][d if d < i else -1]
            terms[i] = x
            bound += x - x_full
            if bound <= N:
                break
        if bound <= N:
            continue
        # rest + row ell's count bounds each pair (a, b).  A pair scored in
        # full swaps each row's term at a for its term at (a, b), which only
        # lowers the bound, and stops once it is <= N.  Row ell's count only
        # grows with b and every row's term only shrinks, so a pair stopped
        # at np also stops every later b whose count is at most
        # row_count + N - np: b jumps to the first count above both caps.
        rest = bound - span
        pre_a = pre_ell[a]
        stop = b_max + 2
        cap = 0
        while True:
            need = N - rest
            if need < cap:
                need = cap
            # need >= 0 and >= the last b's count, so b lands on the first b
            # past it with pre_ell[b] <= pre_a + need < pre_ell[b + 1], which
            # makes gcd(b, ell) = 1
            b = bisect_right(pre_ell, pre_a + need, a + 1, stop) - 1
            if b > b_max:
                break
            row_count = cap = pre_ell[b + 1] - pre_a
            np = rest + row_count
            for i, lo, _, _, w, pre, per in desc:
                end = -((k - b * i) // ell)
                if end > lo:
                    lo = end
                low[i] = lo
                hi = upper[i]
                if lo > hi:
                    x = 0
                elif hi - lo <= w:
                    x = pre[hi + 1] - pre[lo]
                else:
                    d = hi - w - lo
                    x = per[lo % i][d if d < i else -1]
                sub[i] = x
                np += x - terms[i]
                if np <= N:
                    break
            if np <= N:
                cap += N - np
                continue
            # low and sub now hold the child's lower ends and its window
            # maxima over [low, upper]
            stays = inside and -h < a + t * ell and b + t * ell < h
            if stays and _stays_inside(h, t, ell, low, upper):
                # lower ends only grow with b, so every b < h - t*ell stays too
                c = h - t * ell
                if c > b_max:
                    c = b_max + 1
                cap = pre_ell[c] - pre_a
                continue
            choices.append((ell, a, b))
            N = _backtrack(
                k, h, N, ell - 1, n_gt + row_count, low, upper, sub, tables,
                choices, best, t, stays,
            )
            choices.pop()
    return N


def _stays_inside(h: int, t: int, ell: int, lower: list[int], upper: list[int]) -> bool:
    """No open row i < ell has room for a point with |x + t*i| >= h."""
    for i in range(1, ell):
        lo, hi = lower[i], upper[i]
        if lo <= hi and (hi + t * i >= h or lo + t * i <= -h):
            return False
    return True


def _witness_from_choices(k: int, choices: list[tuple[int, int, int]]) -> NiceSet:
    points: list[tuple[int, int]] = [(1, 0)]
    for ell, a, b in choices:
        points += [(z, ell) for z in range(a, b + 1) if gcd(z, ell) == 1]
    return NiceSet.from_points(points, k)


def compute_with_witness(
    k: int, h: int, N: int, tables: IntervalTables | None = None, *,
    irreducible_only: bool = False,
) -> tuple[int, NiceSet | None]:
    """compute(k, h, N) plus the set behind an improved value, if any.

    irreducible_only skips the sets that the shear and quarter turn of
    heights.reduce_height_sqrt2k move below height h (see max_size).
    """
    if not (2 <= h <= k):
        raise ValueError(f"need 2 <= h <= k, got h = {h}, k = {k}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if tables is None:
        tables = IntervalTables(k)
    elif tables.k != k:
        raise ValueError("tables were built for a different k")
    inside = False
    if irreducible_only:
        # inside[c]: the step from c to the next certified class mod h, > k if none
        opened = tables.opened.get(h) or open_residues(k, h)
        inside, step = [0] * h, k
        for c in range(2 * h - 1, -1, -1):
            step = 0 if gcd(c, h) == 1 and min(c % h, -c % h) not in opened else step + 1
            inside[c % h] = step
    best = [None]
    choices = []
    lower = [0, 0] + [1] * (h - 1)
    upper = [0] + [k] * h
    ws, pres, pers = tables.columns(h)
    full = [0] + [_window_max(ws[i], pres[i], pers[i], lower[i], k) for i in range(1, h)]
    result = _backtrack(
        k, h, N, h, 0, lower, upper, full, tables, choices, best, 0, inside
    )
    if result <= N:
        return result, None
    witness = _witness_from_choices(k, best[0])
    if len(witness) != result:
        raise VerificationError(f"witness size {len(witness)} disagrees with value {result}")
    return result, witness


def compute(k: int, h: int, N: int, tables: IntervalTables | None = None) -> int:
    """Maximum size of a k-nice set of height exactly h, if above N, else N."""
    return compute_with_witness(k, h, N, tables)[0]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the full per-height pipeline for one k."""

    k: int
    max_size: int
    witness: NiceSet
    per_height: tuple[tuple[int, str, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "max_size": self.max_size,
            "witness": [[m, n] for (m, n) in self.witness.points],
            "per_height": [{"h": h, "action": action, "result": result}
                           for (h, action, result) in self.per_height],
        }


def max_size(k: int) -> SearchOutcome:
    """Maximum size of a k-nice set for k >= 1, with provenance.

    For k = 1 and 2 the answer needs no search: the height <= 3 closed
    form starts at k = 3, and below it the height-1 set of size k + 2 is
    maximum, N(1) = 3 and N(2) = 4 (the brute-force oracle agrees), so
    that set is the witness and per_height is empty.

    For k >= 3, any k-nice set can be normalized to height at most
    sqrt(2k), so sweeping h from 2 to floor(sqrt(2k)) covers everything:
    a height with no open residues (scanned once per height) never beats
    smaller heights and is skipped, the rest are searched with the cut.

    The sweep searches against the floor max(height_le3_max(k),
    pattern_or_table(k).value - 1), and again from height_le3_max(k) if
    no height beats it, so the answer never rests on the table.  The
    search is exact above its baseline, so a sweep that beats the floor
    has found N(k) and the same witness as one from height_le3_max(k): the
    first set of that size in scan order, at the least height that has
    one.  A higher baseline only prunes more.  per_height records the best
    size witnessed, so an improvement below the floor is not recorded.

    The cut keeps N(k) exact.  It drops a set of height h only when every
    point has |x + t*y| < h, with t the shear of its least top point, so
    that shearing by t and applying heights.ROT gives an equivalent set of
    lower height, or when some top point has a centred residue whose
    certificate holds (heights.open_residues), so that the set, mirrored
    by x -> -x if that residue is negative, is equivalent to one of lower
    height too.  Take a canonical maximum set of least height.  Had the
    cut dropped it, its image would be a maximum set, hence
    inclusion-maximal, of lower height, and canonical_position would put
    that image in the box at its own height, where the search looks:
    against the choice of least height.  The argument says nothing about
    per_height or the witness; the tests check that both match the exact
    searches under the same two floors.
    """
    if k < 1:
        raise ValueError(f"max_size needs k >= 1, got {k}")
    if k < 3:
        return SearchOutcome(k, k + 2, construct_height1(k), ())
    low = height_le3_max(k)
    tables = IntervalTables(k)
    opened = tables.opened
    for floor in (max(low, pattern_or_table(k).value - 1), low):
        N, witness, per_height = low, best_low_height_set(k), []
        for h in range(2, isqrt(2 * k) + 1):
            if h not in opened:
                opened[h] = verify_height(k, h).open_residues()
            if not opened[h]:
                per_height.append((h, "skipped-verified", N))
                continue
            result, found = compute_with_witness(
                k, h, max(N, floor), tables, irreducible_only=True)
            if found is not None:
                N, witness = result, found
            per_height.append((h, "searched" if found is None else "improved", N))
        if N >= floor:  # beat the floor, or the floor was low
            break
    if len(witness) != N:
        raise VerificationError(f"witness size {len(witness)} disagrees with N({k}) = {N}")
    return SearchOutcome(k, N, witness, tuple(per_height))
