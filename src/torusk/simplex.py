"""Exact solution of sparse rational linear systems.

solve_rational_system rebuilds the vertex and the multipliers of the guided
gamma path (lp._solve_guided) from the active set that HiGHS proposes.
Elimination runs over the integers, so the result is exact; lp verifies it
independently all the same.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

ZERO = Fraction(0)


def solve_rational_system(rows, rhs, n):
    """Particular exact solution of rows . x = rhs over n unknowns (a list
    of Fractions, free variables zero), or None if it is inconsistent.

    rows are sparse, {column: coefficient}, int or Fraction; each row is
    scaled to ints by the lcm of its denominators and eliminated without
    fractions: a stored pivot row with pivot d is subtracted after scaling
    the incoming row by d.  Rows are reduced by the pivot rows in the order
    they were stored, each of which holds only columns that were not yet
    pivots, so one pass reduces a row.  A row's pivot is its least column;
    it is stored divided by the gcd of its entries.  Back substitution, in
    reverse pivot order, alone builds Fractions.  Used to reconstruct
    vertices and multipliers from a guessed active set, so callers always
    re-verify the result independently.
    """
    from math import gcd, lcm
    pivots: dict[int, tuple[int, int, dict, int]] = {}  # col -> (rank, d, rest, rhs)
    order: list[int] = []
    for entries, b in zip(rows, rhs):
        big = lcm(b.denominator, *[a.denominator for a in entries.values()])
        row = {c: a.numerator * (big // a.denominator) for c, a in entries.items() if a}
        b = b.numerator * (big // b.denominator)
        due = [(pivots[c][0], c) for c in row if c in pivots]
        heapify(due)
        while due:
            _, c = heappop(due)
            f = row.pop(c, None)
            if f is None:
                continue  # queued twice; already eliminated
            _, d, rest, pb = pivots[c]
            if d != 1:  # row := d * row - f * (pivot row)
                row, b = {c2: d * a for c2, a in row.items()}, d * b
            for c2, a in rest.items():
                v = row.get(c2, 0) - f * a
                if v:
                    if c2 not in row and c2 in pivots:
                        heappush(due, (pivots[c2][0], c2))
                    row[c2] = v
                else:
                    row.pop(c2, None)
            b -= f * pb
        if not row:
            if b:
                return None  # 0 = nonzero: inconsistent
            continue
        p = min(row)
        d = row.pop(p)
        g = gcd(d, b, *row.values())
        pivots[p] = (len(order), d // g, {c: a // g for c, a in row.items()}, b // g)
        order.append(p)
    x = [ZERO] * n
    for p in reversed(order):
        _, d, rest, pb = pivots[p]
        big = lcm(*[x[c].denominator for c in rest])  # x[p] = (pb - rest . x) / d
        s = sum([a * x[c].numerator * (big // x[c].denominator) for c, a in rest.items()])
        x[p] = Fraction(pb * big - s, d * big)
    return x
