"""Height verification and reduction for k-nice sets.

Every k-nice set is equivalent to one of height at most sqrt(2k): center the
top point by a shear and rotate a quarter turn, and the height strictly
drops while it exceeds sqrt(2k).  reduce_height_sqrt2k performs exactly that
on a concrete set.

verify_height(k, h) is the finite certificate search that strengthens the
bound for specific (k, h): when it reports verified, *every* k-nice set of
height exactly h is equivalent to one of smaller height (so h can be skipped
in an exhaustive search over heights).  A not-verified verdict carries the
first witnessing scan point and says only that this certificate failed, not
that an irreducible set exists; its open_residues name every x0 it leaves
open.

map_jobs runs independent jobs in worker processes; sweep and the CLI's
table both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from torusk import lattice
from torusk.lattice import NiceSet, UnimodularMatrix, shear_power

ROT = UnimodularMatrix(0, 1, -1, 0)  # quarter turn: (m, n) -> (n, -m)


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -((-a) // b)


@dataclass(frozen=True)
class HeightVerdict:
    k: int
    h: int
    verified: bool
    # On a not-verified verdict, the first failing scan point: (x0, y, x),
    # with y = x = None when the k >= h^2 + x0 early exit fired.
    witness: tuple | None = None
    # The x0 in 1..h/2 coprime to h whose scan fails, ascending; empty
    # exactly when verified.  The certificate holds per x0: a k-nice set of
    # height h with a top point (z, h) whose centred residue z + t*h,
    # t = -((2z + h) // (2h)), is +-x0 for an x0 not listed is equivalent to
    # one of smaller height (for -x0, after the mirror x -> -x).
    open_residues: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        out = {"k": self.k, "h": self.h, "verified": self.verified}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def verify_height(k: int, h: int) -> HeightVerdict:
    """Certificate that every k-nice set of height h reduces to height < h.

    The scan follows the proof shape: a hypothetical irreducible set in
    canonical position would have a top-row point (x0, h) with x0 coprime to
    h and |x0| <= h/2, a widest point (x, y) with x >= h, and for the
    rotation not to help, a companion point forcing width w >= h among the
    points compatible with both.  The loops enumerate all candidate triples
    exactly; all divisions are exact integer floor/ceil.  Each x0 is
    scanned once, and every failing one is kept as an open residue.
    """
    if not 2 <= h <= k:
        raise ValueError(f"verify_height needs 2 <= h <= k, got h={h}, k={k}")
    failed = [w for x0 in range(1, h // 2 + 1) if gcd(x0, h) == 1 and (w := _scan(k, h, x0))]
    if not failed:
        return HeightVerdict(k, h, True)
    return HeightVerdict(k, h, False, failed[0], tuple(w[0] for w in failed))


def _scan(k: int, h: int, x0: int) -> tuple | None:
    """verify_height's scan for one top-row x0: the first failing scan
    point, or None when the certificate holds for x0."""
    if h * h <= k - x0:  # h <= (k - x0) / h
        return (x0, None, None)
    for y in range(1, h + 1):
        for x in range(h, (x0 * y + k) // h + 1):
            if gcd(x, y) != 1:
                continue
            z = min(y, x - y)
            if z * x + k < h * x:  # z + k/x < h
                continue
            w = 1
            for yp in range(1, h + 1):
                lo = ceil_div(yp * (x0 - h) - k, h)
                hi = (yp * (x0 - h) + k) // h
                for xp in range(lo, hi + 1):
                    if abs(xp) > w and abs(xp * y - (x - y) * yp) <= k and gcd(xp, yp) == 1:
                        w = abs(xp)
            if w >= h:
                return (x0, y, x)
    return None


def reduction_range(k: int) -> range:
    """Heights h with sqrt(4k/3) < h <= sqrt(2k): a verified verdict at
    each of these lowers the general sqrt(2k) height bound for this k
    down to sqrt(4k/3)."""
    lo = isqrt(4 * k // 3)  # floor(sqrt(4k/3))
    hi = isqrt(2 * k)
    return range(lo + 1, hi + 1)


def map_jobs(fn, jobs: list, threads: int, chunksize: int) -> list:
    """[fn(job) for job in jobs], in input order.  With threads > 1 and more
    than one job, the jobs run in that many spawned worker processes, so fn
    must be a module-level function and jobs and results picklable."""
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=threads, mp_context=context) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def sweep(k_from: int, k_to: int, threads: int = 1) -> list[HeightVerdict]:
    """verify_height over the reduction range of every k in [k_from, k_to]."""
    pairs = [(k, h) for k in range(k_from, k_to + 1) for h in reduction_range(k) if h >= 2]
    return map_jobs(_verify_pair, pairs, threads, chunksize=16)


def _verify_pair(pair: tuple[int, int]) -> HeightVerdict:
    return verify_height(*pair)


def reduce_height_sqrt2k(q: NiceSet) -> NiceSet:
    """An equivalent set of height at most sqrt(2k), by repeated shear and
    quarter turn.  While the height h exceeds sqrt(2k): normalize signs,
    shear so the top point (x0, h) has |x0| <= h/2 (then every width is at
    most h/2 + k/h < h), and rotate to trade width for height.
    """
    if not q.points:
        raise ValueError("cannot reduce an empty set")
    k = q.k
    current = lattice.normalize_y_nonneg(q)
    while lattice.height(current) ** 2 > 2 * k:
        h = lattice.height(current)
        tops = [m for m, n in current.points if n == h]
        x0 = min(tops)
        # shear exponent centering x0: x0 + t*h in [-h/2, h/2]
        t = -((2 * x0 + h) // (2 * h))
        sheared = lattice.apply_matrix(current, shear_power(t))
        rotated = lattice.apply_matrix(sheared, ROT)
        current = lattice.normalize_y_nonneg(rotated)
        if lattice.height(current) >= h:
            raise AssertionError("height did not decrease; input was not k-nice?")
    return current
