"""The tests' independent oracle for gamma: an exact tableau simplex over
the rationals, and LP(ell) solved with it by constraint generation.

solve_max solves  max c.x  subject to  A x <= b,  x >= 0  with every entry
a Fraction, so optimality verdicts are exact.  b must be non-negative
(every program here has b in {0, 1}), which makes the all-slack basis
feasible and a phase-1 unnecessary.

Pivoting uses Dantzig's rule (largest reduced cost) while the objective is
moving and switches permanently to Bland's rule after a run of degenerate
pivots; Bland's rule cannot cycle, so termination is unconditional.

The program answers gamma(ell) with lp._solve_northwest alone, whose dual
witness is an integer transport plan.  The tests compare that path against
solve_by_generation, whose duals are general multipliers on the rows of
LP(ell): links and both signs of the pair rows, keyed as below.  It shares
only check_primal with the program; its multipliers are checked here, by
fraction_check_dual, against y^T A >= c in Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from torusk import numtheory
from torusk.errors import VerificationError
from torusk.lp import check_primal

ZERO = Fraction(0)
ONE = Fraction(1)

# Consecutive pivots without objective progress before Bland's rule takes over.
STALL_LIMIT = 12
GEN_BATCH = 2  # violated rows added per round, as a multiple of ell


# Row keys: ("link", i) is sigma_i - tau_i <= 0;
# ("pair", i, j, s) is s * (i * tau_j - j * sigma_i) <= 1 with s = +-1.
RowKey = tuple


def row_entries(ell: int, key: RowKey) -> tuple[dict[int, int], int]:
    """The row's two nonzero coefficients by column, and its right-hand side."""
    if key[0] == "link":
        i = key[1]
        return {i - 1: 1, ell + i - 1: -1}, 0
    _, i, j, s = key
    return {ell + j - 1: s * i, i - 1: -s * j}, 1


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


def fraction_check_dual(ell: int, multipliers) -> str | None:
    """None if the multipliers (key, y) are feasible for the dual of LP(ell),
    else the first failure: a key that is not a row of LP(ell), a y < 0, or
    a column where y^T A, summed in Fractions, falls below the cost c."""
    col = [ZERO] * (2 * ell)
    for key, y in multipliers:
        indices = key[1:2] if key[0] == "link" else key[1:3]
        if not all(1 <= x <= ell for x in indices):
            return f"not a row of LP({ell}): {key!r}"
        if y < 0:
            return f"negative multiplier on {key}"
        for idx, a in row_entries(ell, key)[0].items():
            col[idx] += a * y
    for idx, (total, c) in enumerate(zip(col, objective(ell))):
        if total < c:
            return f"dual infeasible at column {idx}"
    return None


@dataclass(frozen=True)
class SimplexGamma:
    """gamma(ell) from the simplex, with its primal point and its general
    dual: multipliers on rows of LP(ell), zero on every row not listed."""

    ell: int
    gamma: Fraction
    witness_primal: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]  # (sigma, tau)
    multipliers: tuple[tuple[RowKey, Fraction], ...]


def verify_simplex_gamma(sg: SimplexGamma) -> None:
    """Raise VerificationError unless the witnesses prove gamma: check_primal
    accepts the point and c.x = gamma, fraction_check_dual accepts the
    multipliers and y.b = gamma."""
    ell = sg.ell
    sigma, tau = sg.witness_primal
    problem = check_primal(ell, sigma, tau)
    if problem is None and sum(map(mul, objective(ell), (*sigma, *tau))) != sg.gamma:
        problem = "primal objective mismatch"
    if problem is None:
        problem = fraction_check_dual(ell, sg.multipliers)
    value = sum(y * row_entries(ell, key)[1] for key, y in sg.multipliers)
    if problem is None and value != sg.gamma:
        problem = "duality gap"
    if problem is not None:
        raise VerificationError(f"simplex gamma({ell}): {problem}")


def solve_by_generation(ell: int) -> SimplexGamma:
    """gamma(ell) by the exact simplex over a growing working set of rows.

    The initial rows (links and diagonal pairs) already bound the objective:
    along any recession direction tau and sigma move together, so the
    objective cannot improve along a ray and the simplex never reports
    unbounded.  At each round every violated pair constraint is found by an
    exact scan; when none remain the incumbent is optimal for the full
    program and the working-set multipliers (zero elsewhere) are dual
    feasible for it.  The result has passed verify_simplex_gamma.
    """
    cvec = objective(ell)
    work: list[RowKey] = [("link", i) for i in range(1, ell + 1)]
    work += [("pair", i, i, 1) for i in range(1, ell + 1)]
    known = set(work)
    while True:
        rows = [row_entries(ell, key) for key in work]
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
    sg = SimplexGamma(
        ell=ell,
        gamma=sol.objective,
        witness_primal=(tuple(sigma), tuple(tau)),
        multipliers=tuple((key, y) for key, y in zip(work, sol.duals) if y != 0),
    )
    verify_simplex_gamma(sg)
    return sg
