"""k-nice subsets of Z^2 and the unimodular moves between them.

A point is a pair (m, n) of coprime integers, not both zero; it stands for
the isotopy class of a simple closed curve on the torus, with (m, n) and
(-m, -n) naming the same curve.  A set Q is k-nice when it picks at most one
point per antipodal class and every two points p, q satisfy
|pair_measure(p, q)| <= k, the geometric intersection number of the curves.

GL_2(Z) acts on points preserving all pair measures, as does negating any
subset of the points; sets related this way are equivalent and all size
questions factor through that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Point = tuple[int, int]  # (m, n) = (x, y)


def pair_measure(p: Point, q: Point) -> int:
    """|det(p, q)| = |p.m * q.n - q.m * p.n|: intersection number of the curves."""
    return abs(p[0] * q[1] - q[0] * p[1])


def check_k_nice(points, k: int) -> str | None:
    """None if the collection is k-nice, else a description of the first
    violated condition (checked in order: nonzero, coprime, duplicate,
    antipodal, measure).

    The measure condition is decided on the convex hull H of the points.
    |det(p, q)| is convex in each argument, so its maximum over H x H is
    reached at a pair of vertices of H, and the vertices are points of the
    set: the largest pair measure of the set is the largest over pairs of
    hull vertices.  Only when that exceeds k are all pairs scanned, to name
    the first violating one.
    """
    if k < 0:
        return f"k must be non-negative, got {k}"
    pts = list(points)
    seen: set[Point] = set()
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
    hull = convex_hull(pts)
    if max((abs(m * nq - mq * n) for m, n in hull for mq, nq in hull), default=0) <= k:
        return None
    # pair_measure inlined: this loop is quadratic in the set's size
    for i, p in enumerate(pts):
        m, n = p
        for mq, nq in pts[i + 1 :]:
            d = abs(m * nq - mq * n)
            if d > k:
                return f"pair_measure{p, (mq, nq)} = {d} > k = {k}"
    return None


def _sort_key(p: Point):
    return (p[1], p[0])


@dataclass(frozen=True)
class NiceSet:
    """A validated k-nice set, points stored sorted by (n, m)."""

    k: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if list(self.points) != sorted(self.points, key=_sort_key):
            raise ValueError("points must be sorted by (n, m); use from_points")
        problem = check_k_nice(self.points, self.k)
        if problem is not None:
            raise ValueError(f"not {self.k}-nice: {problem}")

    @classmethod
    def from_points(cls, points, k: int) -> "NiceSet":
        return cls(k=k, points=tuple(sorted(points, key=_sort_key)))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self.points


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix [[a, b], [c, d]] with determinant +-1, acting on column
    vectors: (m, n) -> (a*m + b*n, c*m + d*n)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if abs(self.det) != 1:
            raise ValueError(f"determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point) -> Point:
        m, n = p
        return (self.a * m + self.b * n, self.c * m + self.d * n)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )


def shear_power(t: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, t, 0, 1)


def apply_matrix(q: NiceSet, mat: UnimodularMatrix) -> NiceSet:
    """Image of the whole set; same k, same cardinality, still k-nice."""
    return NiceSet.from_points([mat.apply(p) for p in q.points], q.k)


def normalize_y_nonneg(q: NiceSet) -> NiceSet:
    """Negate each point with n < 0, or n = 0 and m < 0.  Pair measures are
    unaffected, so the result is k-nice of the same size."""
    fixed = []
    for m, n in q.points:
        if n < 0 or (n == 0 and m < 0):
            fixed.append((-m, -n))
        else:
            fixed.append((m, n))
    return NiceSet.from_points(fixed, q.k)


def height(q: NiceSet) -> int:
    """max |n|; rejects the empty set."""
    if not q.points:
        raise ValueError("height of an empty set")
    return max(abs(n) for _, n in q.points)


# --- convex hull / maximality ----------------------------------------------


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[Point]:
    """Monotone chain; returns hull vertices counter-clockwise, no duplicates.
    Collinear input collapses to its two extremes (or fewer)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull: list[Point] = []
    for seq in (pts, reversed(pts)):
        # a chain pops its last vertex while it does not turn left at p:
        # _cross(chain[-2], chain[-1], p) <= 0, inlined
        chain: list[Point] = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (py - oy) > (ay - oy) * (px - ox):
                    break
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull


def hull_area(points) -> Fraction:
    """Area of the convex hull of the points, exact (shoelace / 2).
    Degenerate inputs (fewer than 3 hull vertices) have area 0."""
    hull = convex_hull(points)
    if len(hull) < 3:
        return Fraction(0)
    twice = 0
    for i, (x0, y0) in enumerate(hull):
        x1, y1 = hull[(i + 1) % len(hull)]
        twice += x0 * y1 - x1 * y0
    return Fraction(abs(twice), 2)


def _segment_lattice_points(a: Point, b: Point):
    """Integer points on the closed segment from a to b."""
    g = gcd(b[0] - a[0], b[1] - a[1])
    if g == 0:
        yield a
        return
    dx, dy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    for t in range(g + 1):
        yield (a[0] + dx * t, a[1] + dy * t)


def _lattice_points_in_hull(points) -> list[Point]:
    """Integer points inside or on the convex hull of the given points."""
    hull = convex_hull(points)
    if len(hull) == 0:
        return []
    if len(hull) <= 2:
        return sorted(set(_segment_lattice_points(hull[0], hull[-1])))
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    out = []
    for y in range(min(ys), max(ys) + 1):
        for x in range(min(xs), max(xs) + 1):
            if all(
                _cross(hull[i], hull[(i + 1) % len(hull)], (x, y)) >= 0
                for i in range(len(hull))
            ):
                out.append((x, y))
    return out


def is_hull_closed(q: NiceSet) -> bool:
    """Whether every coprime point of conv(Q) lies in Q.  Inclusion-maximal
    k-nice sets have this property: a coprime hull point has measure at most
    k against everything in Q, so leaving it out contradicts maximality."""
    pts = set(q.points)
    for p in _lattice_points_in_hull(q.points):
        if p == (0, 0) or gcd(p[0], p[1]) != 1:
            continue
        if p not in pts and (-p[0], -p[1]) not in pts:
            return False
    return True


def _row_interval(points, y: int, k: int) -> tuple[Fraction, Fraction] | None:
    """Exact x-interval {x : |m*y - n*x| <= k for all (m, n) in points}, or
    None when empty.  Rows with only n = 0 constraints are unbounded and
    must be handled by the caller."""
    lo, hi = None, None
    for m, n in points:
        if n == 0:
            if abs(m * y) > k:
                return None
            continue
        # |m*y - n*x| <= k  with n > 0  =>  (m*y - k)/n <= x <= (m*y + k)/n
        a = Fraction(m * y - k, n)
        b = Fraction(m * y + k, n)
        if n < 0:
            a, b = b, a
        lo = a if lo is None else max(lo, a)
        hi = b if hi is None else min(hi, b)
    if lo is None or hi is None:
        raise ValueError("row interval unbounded: no point with n != 0")
    if lo > hi:
        return None
    return lo, hi


def maximal_closure(q: NiceSet) -> NiceSet:
    """Greedy completion of a y-non-negative k-nice set to an inclusion-maximal
    one.  Sweeps rows y = 0, 1, 2, ... in order, x ascending within a row,
    adding every candidate that stays k-nice, and repeats until a full sweep
    adds nothing.  The candidate region is exactly the set of points whose
    measure against the current set is within k, so the fixpoint is maximal
    against all of Z^2.
    """
    if any(n < 0 for _, n in q.points):
        raise ValueError("maximal_closure expects a y-non-negative set")
    k = q.k
    current: list[Point] = list(q.points)

    def try_add(p: Point) -> None:
        m, n = p
        if (m == 0 and n == 0) or gcd(m, n) != 1:
            return
        if p in current or (-m, -n) in current:
            return
        if all(pair_measure(p, s) <= k for s in current):
            current.append(p)

    # A single point with n = 0 constrains nothing horizontally; seed the
    # canonical companion so the region below is bounded.
    if all(n == 0 for _, n in current):
        try_add((0, 1))

    changed = True
    while changed:
        changed = False
        before = len(current)
        # y = 0 first: the only coprime candidates are (1, 0) and (-1, 0),
        # with identical measures against everything; prefer the canonical
        # sign so later normalization finds (1, 0).
        for p in ((1, 0), (-1, 0)):
            try_add(p)
        y = 1
        while True:
            interval = _row_interval(current, y, k)
            if interval is None:
                # The admissible region is convex, so once a row's *real*
                # interval is empty every later row is empty too.  A row whose
                # interval merely contains no integer must not stop the climb.
                break
            lo, hi = interval
            x0 = -((-lo.numerator) // lo.denominator)  # ceil
            x1 = hi.numerator // hi.denominator  # floor
            for x in range(x0, x1 + 1):
                try_add((x, y))
            y += 1
        changed = len(current) > before
    return NiceSet.from_points(current, k)


def canonical_position(q: NiceSet) -> NiceSet:
    """Move an inclusion-maximal k-nice set with 1 <= height <= k into the box
    {0..k} x {0..height}: normalize signs so y >= 0, then apply the smallest
    shear power making every x non-negative.  The result contains (1, 0),
    (0, 1) and (1, 1).  Raises ValueError if the preconditions fail (checked
    via hull closure) or if any postcondition does, which signals the input
    was not actually maximal.
    """
    h = height(q)
    if not 1 <= h <= q.k:
        raise ValueError(f"canonical_position needs 1 <= height <= k, got height {h}")
    if not is_hull_closed(q):
        raise ValueError("canonical_position needs an inclusion-maximal set")
    flat = normalize_y_nonneg(q)
    if (1, 0) not in flat:
        raise ValueError("maximal set of height <= k must contain (1, 0) up to sign")
    t = max(-(m // n) for m, n in flat.points if n > 0)  # ceil(-m/n) = -(m // n)
    boxed = apply_matrix(flat, shear_power(t))
    for needed in ((1, 0), (0, 1), (1, 1)):
        if needed not in boxed:
            raise ValueError(f"canonical image is missing {needed}; input not maximal")
    for m, n in boxed.points:
        if not (0 <= m <= q.k and 0 <= n <= h):
            raise ValueError(f"canonical image leaves the box at {(m, n)}")
    return boxed
