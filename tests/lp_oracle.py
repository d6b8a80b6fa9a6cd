"""The tests' independent oracle for gamma: an exact tableau simplex over
the rationals, and LP(ell) solved with it by constraint generation.

solve_max solves  max c.x  subject to  A x <= b,  x >= 0  with every entry
a Fraction, so optimality verdicts are exact.  b must be non-negative
(every program here has b in {0, 1}), which makes the all-slack basis
feasible and a phase-1 unnecessary.

Pivoting uses Dantzig's rule (largest reduced cost) while the objective is
moving and switches permanently to Bland's rule after a run of degenerate
pivots; Bland's rule cannot cycle, so termination is unconditional.

The program answers gamma(ell) with lp._solve_northwest alone; the tests
compare that path against solve_by_generation, which shares only the row
definitions and verify_gamma with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from torusk import numtheory
from torusk.lp import GammaValue, LpDualWitness, RowKey, _row_entries, verify_gamma

ZERO = Fraction(0)
ONE = Fraction(1)

# Consecutive pivots without objective progress before Bland's rule takes over.
STALL_LIMIT = 12
GEN_BATCH = 2  # violated rows added per round, as a multiple of ell


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


def objective(ell: int) -> list[Fraction]:
    """The cost vector of LP(ell) over (sigma, tau): -rho(i), then rho(i)."""
    phi = numtheory.totients(ell)
    rhos = [Fraction(phi[i], i) for i in range(1, ell + 1)]
    return [-r for r in rhos] + rhos


def solve_by_generation(ell: int) -> GammaValue:
    """gamma(ell) by the exact simplex over a growing working set of rows.

    The initial rows (links and diagonal pairs) already bound the objective:
    along any recession direction tau and sigma move together, so the
    objective cannot improve along a ray and the simplex never reports
    unbounded.  At each round every violated pair constraint is found by an
    exact scan; when none remain the incumbent is optimal for the full
    program and the working-set multipliers (zero elsewhere) are dual
    feasible for it.  The result carries method "simplex" and has passed
    verify_gamma.
    """
    cvec = objective(ell)
    work: list[RowKey] = [("link", i) for i in range(1, ell + 1)]
    work += [("pair", i, i, 1) for i in range(1, ell + 1)]
    known = set(work)
    while True:
        rows = [_row_entries(ell, key) for key in work]
        dense = [[entries.get(idx, 0) for idx in range(2 * ell)] for entries, _ in rows]
        sol = solve_max(cvec, dense, [b for _, b in rows])
        sigma = sol.x[:ell]
        tau = sol.x[ell:]
        violated: list[tuple[Fraction, RowKey]] = []
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                v = i * tau[j - 1] - j * sigma[i - 1]
                if v > 1:
                    violated.append((v - 1, ("pair", i, j, 1)))
                elif v < -1:
                    violated.append((-v - 1, ("pair", i, j, -1)))
        violated = [(excess, key) for excess, key in violated if key not in known]
        if not violated:
            break
        violated.sort(key=lambda t: (-t[0], t[1]))
        for _, key in violated[: GEN_BATCH * ell]:
            work.append(key)
            known.add(key)
    multipliers = tuple((key, y) for key, y in zip(work, sol.duals) if y != 0)
    gv = GammaValue(
        ell=ell,
        gamma=sol.objective,
        witness_primal=(tuple(sigma), tuple(tau)),
        witness_dual=LpDualWitness(ell=ell, multipliers=multipliers, value=sol.objective),
        method="simplex",
    )
    verify_gamma(gv)
    return gv
