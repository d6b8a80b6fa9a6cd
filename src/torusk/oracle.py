"""Brute-force ground truth for tiny k.

Exhaustive maximum over k-nice sets, independent of the pruned search:
any maximum-size set can be normalized to contain (1,0), (0,1), (1,1)
and fit inside {0..k} x {0..floor(sqrt(2k))}, so a depth-first scan of
that box with pairwise-measure pruning is exact.  Deliberately simple;
capped at small k where it still runs in seconds.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import BudgetError
from .lattice import NiceSet, Point, pair_measure
from .search import SearchOutcome

ORACLE_CAP = 12

_SEEDS: tuple[Point, ...] = ((1, 0), (0, 1), (1, 1))


def _largest_clique(candidates: list[Point], k: int) -> list[Point]:
    """Largest subset of candidates with every pair of measure <= k and no
    antipodal pair (only the symmetric box has one), by take-or-leave DFS."""
    n = len(candidates)
    adj = [0] * n
    for i, p in enumerate(candidates):
        for j in range(i + 1, n):
            q = candidates[j]
            if (p[0] != -q[0] or p[1] != -q[1]) and pair_measure(p, q) <= k:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best_size = 0
    best_mask = 0

    def dfs(avail: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask
        if count > best_size:
            best_size = count
            best_mask = chosen
        while avail:
            if count + avail.bit_count() <= best_size:
                return
            j = (avail & -avail).bit_length() - 1
            bit = 1 << j
            avail &= ~bit
            dfs(avail & adj[j], chosen | bit, count + 1)

    dfs((1 << n) - 1, 0, 0)
    return [candidates[j] for j in range(n) if best_mask >> j & 1]


def brute_force_max(k: int, h_cap: int | None = None) -> SearchOutcome:
    """Exact maximum size of a k-nice set by exhaustive search, k <= ORACLE_CAP."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > ORACLE_CAP:
        raise BudgetError(f"oracle capped at k <= {ORACLE_CAP}, got {k}")
    if h_cap is None:
        h_cap = isqrt(2 * k)
    candidates = [
        (m, n)
        for n in range(h_cap + 1)
        for m in range(k + 1)
        if gcd(m, n) == 1 and (m, n) not in _SEEDS
        and all(pair_measure((m, n), s) <= k for s in _SEEDS)
    ]
    witness = NiceSet.from_points([*_SEEDS, *_largest_clique(candidates, k)], k)
    return SearchOutcome(k=k, max_size=len(witness), witness=witness, per_height=())


def symmetric_box_max(k: int) -> int:
    """Maximum over the symmetric box {-k..k} x {0..floor(sqrt(2k))}, k <= 6.

    Slower cross-check that the canonical-box restriction in
    brute_force_max loses nothing: no seed points are forced, x may be
    negative, and the y = 0 antipode pair is excluded via adjacency.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > 6:
        raise BudgetError(f"symmetric check capped at k <= 6, got {k}")
    candidates = [
        (m, n) for n in range(isqrt(2 * k) + 1) for m in range(-k, k + 1) if gcd(m, n) == 1
    ]
    return len(_largest_clique(candidates, k))
