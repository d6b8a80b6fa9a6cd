"""Exact simplex over the rationals.

Solves  max c.x  subject to  A x <= b,  x >= 0  with every entry a Fraction,
so optimality verdicts are exact and strict inequalities downstream are
certifiable.  b must be non-negative (every program here has b in {0, 1}),
which makes the all-slack basis feasible and a phase-1 unnecessary.

Pivoting uses Dantzig's rule (largest reduced cost) while the objective is
moving and switches permanently to Bland's rule after a run of degenerate
pivots; Bland's rule cannot cycle, so termination is unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

ZERO = Fraction(0)
ONE = Fraction(1)

# Consecutive pivots without objective progress before Bland's rule takes over.
STALL_LIMIT = 12


class Unbounded(Exception):
    """The objective is unbounded above on the feasible region."""


@dataclass
class LpSolution:
    objective: Fraction
    x: list[Fraction]
    duals: list[Fraction]  # one multiplier per row, all >= 0 at optimality
    pivots: int


def solve_max(c, rows, rhs) -> LpSolution:
    """Maximize c.x over {x >= 0 : rows[i].x <= rhs[i] for all i}."""
    n = len(c)
    m = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")
    b = [Fraction(v) for v in rhs]
    if any(v < 0 for v in b):
        raise ValueError("solve_max needs b >= 0 (all-slack start)")

    # Tableau rows: n structural columns, m slack columns, then the rhs.
    width = n + m
    tab = []
    for i, row in enumerate(rows):
        t = [Fraction(v) for v in row] + [ZERO] * m + [b[i]]
        t[n + i] = ONE
        tab.append(t)
    red = [Fraction(v) for v in c] + [ZERO] * m + [ZERO]  # reduced costs | objective
    basis = list(range(n, n + m))

    pivots = 0
    stalled = 0
    bland = False
    while True:
        col = -1
        if bland:
            for j in range(width):
                if red[j] > 0:
                    col = j
                    break
        else:
            best = ZERO
            for j in range(width):
                if red[j] > best:
                    best = red[j]
                    col = j
        if col < 0:
            break  # optimal

        # Ratio test; ties broken by smallest basis variable (Bland-safe).
        row_i = -1
        best_ratio = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][width] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[row_i])
                ):
                    best_ratio = ratio
                    row_i = i
        if row_i < 0:
            raise Unbounded(f"unbounded along column {col}")

        _pivot(tab, red, row_i, col, width)
        basis[row_i] = col
        pivots += 1
        if best_ratio == 0:
            stalled += 1
            if stalled >= STALL_LIMIT:
                bland = True
        else:
            stalled = 0

    x = [ZERO] * n
    for i, v in enumerate(basis):
        if v < n:
            x[v] = tab[i][width]
    duals = [-red[n + i] for i in range(m)]
    return LpSolution(objective=red[width], x=x, duals=duals, pivots=pivots)


def _pivot(tab, red, row_i, col, width):
    prow = tab[row_i]
    piv = prow[col]
    if piv != 1:
        inv = ONE / piv
        tab[row_i] = prow = [v * inv for v in prow]
    for r in tab:
        if r is prow:
            continue
        f = r[col]
        if f != 0:
            for j in range(width + 1):
                if prow[j]:
                    r[j] -= f * prow[j]
    f = red[col]
    if f != 0:
        for j in range(width):
            if prow[j]:
                red[j] -= f * prow[j]
        red[width] += f * prow[width]  # objective grows by f * rhs


def solve_rational_system(rows, rhs, n):
    """Particular exact solution of rows . x = rhs over n unknowns, or None
    if the system is inconsistent.

    rows are sparse, {column: coefficient} with int or Fraction values.
    Forward elimination reduces each incoming row by the stored pivot rows
    in the order they were stored; a stored row holds only columns that
    were not pivots when it was stored, so every elimination step brings in
    later pivots only and the row is reduced in one pass.  Back
    substitution then runs in reverse pivot order, and free variables are
    set to zero.  Used to reconstruct vertices and multipliers from a
    guessed active set, so callers always re-verify the result
    independently.
    """
    pivots: dict[int, tuple[int, dict, Fraction]] = {}  # col -> (rank, rest, rhs)
    order: list[int] = []
    for entries, b in zip(rows, rhs):
        row = {c: a for c, a in entries.items() if a}
        due = [(pivots[c][0], c) for c in row if c in pivots]
        heapify(due)
        while due:
            _, c = heappop(due)
            f = row.pop(c, None)
            if f is None:
                continue  # queued twice; already eliminated
            _, rest, pb = pivots[c]
            for c2, a in rest.items():
                v = row.get(c2, ZERO) - f * a
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
        inv = ONE / row.pop(p)
        pivots[p] = (len(order), {c: a * inv for c, a in row.items()}, b * inv)
        order.append(p)
    x = [ZERO] * n
    for p in reversed(order):
        _, rest, pb = pivots[p]
        x[p] = pb - sum(a * x[c] for c, a in rest.items())
    return x
