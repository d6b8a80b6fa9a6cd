"""Closed-form answers: low-height maxima, the mod-6 pattern, exceptions.

For k >= 3 the maximum size of a k-nice set of height at most 3 is
k+4, k+3 or k+2 depending on k mod 6, and outside an explicit finite
exception list this is the global maximum as well.  The exception list
(57 values of k >= 3, largest 384; the table's 59 rows add k = 1 and 2)
is embedded below together with the handful of explicit constructions
that attain the closed forms, including the four square-grid-like sets
of size k+6 at k in {24, 48, 120, 168}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .lattice import NiceSet

# Exceptional values k: max size.  Everything not listed follows the
# mod-6 pattern.  k = 1 and 2 sit below the pattern; every k >= 3 here
# sits above it.  The tests pin the table's sha256, so a typo cannot slip
# through, and the slow tier re-derives every row by search.
EXCEPTIONS: dict[int, int] = {
    1: 3, 2: 4, 19: 23, 23: 27, 24: 30, 25: 30, 33: 37, 34: 38, 37: 42, 47: 51,
    48: 54, 49: 54, 53: 57, 54: 59, 55: 60, 61: 65, 62: 67, 63: 67, 64: 68,
    76: 80, 83: 87, 84: 89, 85: 89, 89: 93, 90: 94, 94: 98, 113: 117, 114: 119,
    115: 119, 118: 122, 119: 123, 120: 126, 121: 126, 124: 128, 127: 132,
    139: 143, 141: 145, 142: 147, 143: 147, 144: 149, 145: 149, 154: 158,
    167: 171, 168: 174, 169: 174, 174: 178, 184: 188, 204: 208, 208: 212,
    214: 217, 234: 238, 244: 247, 264: 268, 274: 277, 294: 297, 304: 307,
    324: 327, 354: 357, 384: 387,
}

# The four k with maximum k+6; k = p*p - 1 for the primes below.
EXTREMAL_K: tuple[int, ...] = (24, 48, 120, 168)


def pattern_value(k: int) -> int:
    """Mod-6 pattern: k+4, k+3 or k+2 ignoring exceptional k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    r = k % 6
    if r == 2:
        return k + 4
    if r in (1, 3, 5):
        return k + 3
    return k + 2


def height_le3_max(k: int) -> int:
    """Maximum size of a k-nice set of height at most 3, k >= 3.

    Same case split as the pattern; the pattern is exactly the low-height
    maximum, exceptional k just beat it with taller sets.
    """
    if k < 3:
        raise ValueError(f"height_le3_max needs k >= 3, got {k}")
    return pattern_value(k)


@dataclass(frozen=True)
class PatternValue:
    """Maximum size together with where that answer came from.

    source is "tiny" (k in {1, 2}), "table" (embedded exception list)
    or "pattern" (the mod-6 formula).
    """

    k: int
    value: int
    source: str


def pattern_or_table(k: int) -> PatternValue:
    """Maximum size of a k-nice set for any k >= 1.

    Exceptional k come from the embedded table, including k in {1, 2},
    the only values below the pattern (3 and 4, source "tiny"); the rest
    is the pattern.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k in EXCEPTIONS:
        return PatternValue(k=k, value=EXCEPTIONS[k], source="table" if k >= 3 else "tiny")
    return PatternValue(k=k, value=pattern_value(k), source="pattern")


def construct_height1(k: int) -> NiceSet:
    """Height-1 set of size k+2: (1,0) plus the full row y = 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    points = [(1, 0)] + [(x, 1) for x in range(0, k + 1)]
    return NiceSet.from_points(points, k)


def construct_height2(k: int) -> NiceSet:
    """Height-2 set of size k+3 for odd k >= 3: row y = 1 plus (k, 2)."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"construct_height2 needs odd k >= 3, got {k}")
    points = [(1, 0), (k, 2)] + [(x, 1) for x in range(0, k + 1)]
    return NiceSet.from_points(points, k)


def construct_height3(k: int) -> NiceSet:
    """Height-3 set of size k+4 for k = 2 mod 6, k >= 8.

    s is the smallest integer above 2k/3 with s = 1 mod 3.  Row y = 1
    runs 0..(k+s)/3, row y = 2 takes the odd x in
    [(k+1)/3, (k+2s-1)/3], row y = 3 takes s..k away from multiples
    of 3.
    """
    if k % 6 != 2 or k < 8:
        raise ValueError(f"construct_height3 needs k = 2 mod 6, k >= 8, got {k}")
    s = 2 * k // 3 + 1
    while s % 3 != 1:
        s += 1
    points: list[tuple[int, int]] = [(1, 0)]
    points += [(x, 1) for x in range(0, (k + s) // 3 + 1)]
    points += [(x, 2) for x in range((k + 1) // 3, (k + 2 * s - 1) // 3 + 1, 2)]
    points += [(z, 3) for z in range(s, k + 1) if z % 3 != 0]
    return NiceSet.from_points(points, k)


def construct_extremal(k: int) -> NiceSet:
    """The size-(k+6) set for k in {24, 48, 120, 168}.

    With p = sqrt(k+1) (prime in all four cases) the set is (1,0)
    together with, for each row i = 1..p, the coprime z in
    [p*i - p, (p-1)*i + p].
    """
    if k not in EXTREMAL_K:
        raise ValueError(f"no extremal construction for k = {k}")
    p = isqrt(k + 1)
    points: list[tuple[int, int]] = [(1, 0)]
    for i in range(1, p + 1):
        lo, hi = p * i - p, (p - 1) * i + p
        points += [(z, i) for z in range(lo, hi + 1) if gcd(z, i) == 1]
    return NiceSet.from_points(points, k)


def best_low_height_set(k: int) -> NiceSet:
    """A k-nice set of size height_le3_max(k), k >= 3."""
    if k % 6 == 2:
        return construct_height3(k)
    if k % 2 == 1:
        return construct_height2(k)
    return construct_height1(k)
