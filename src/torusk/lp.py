"""The density linear program and its certificates.

For ell >= 1 the program LP(ell) is

    maximize   sum_i rho(i) * (tau_i - sigma_i)
    subject to tau_i >= sigma_i >= 0                        (1 <= i <= ell)
               -1 <= i * tau_j - j * sigma_i <= 1           (1 <= i, j <= ell)

and gamma(ell) is its exact optimum.  sigma_i / tau_i bound the scaled left
and right endpoints of row i of a nice set in canonical position, so
gamma_h * k + beta_h bounds the size of any k-nice set of height h; the
strict inequalities behind the closed form for N(k) all reduce to exact
statements about gamma.

One solution path, exact from the start and with no LP solver: put
u_i = sigma_i / i and v_j = tau_j / j, and the dual of the band relaxation
(the link rows plus the rows i * tau_j - j * sigma_i <= 1 with
i + j >= ell + 1, the support of dual_matrix) becomes a transportation
problem with cost 1/(ij).  In ascending i and descending j that cost array
is Monge and the forbidden cells form a staircase, so the northwest-corner
plan, integer flows f on cells (i, j), is an optimal dual, and potentials
along its staircase give the primal point (see _solve_northwest).  The pair
is accepted only if primal feasibility over every row of LP(ell), the
plan's row and column sums (check_dual) and equality of objectives all
verify exactly; any failure raises VerificationError.  The tests compare
this path against an exact simplex with constraint generation, kept with
them as the oracle.

A separate, solver-independent upper bound comes from explicit matrices
feasible for the dual of the relaxed program: dual_matrix(ell) has value
exactly 1, and perturbed_dual_matrix(ell) pushes it strictly below 1 for
ell >= 4, which is the fact that separates the k+2/k+3/k+4 patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import compress
from math import lcm
from operator import index, mul

from torusk import numtheory
from torusk.errors import BudgetError, VerificationError

ZERO = Fraction(0)
ONE = Fraction(1)

# largest ell gamma accepts: the budget bounds verify_gamma's exact O(ell^2)
# primal check (one _solve_northwest, check included: 17 ms at ell = 256,
# 0.31 s at ell = 1000; 2-core host, Python 3.11)
LP_SIZE_BUDGET = 256


@dataclass(frozen=True)
class GammaValue:
    """gamma(ell) with its witnesses: a point of LP(ell) with objective
    gamma, and the northwest plan, whose value sum f / (ij) is gamma.
    method is always "northwest"; it stays only because
    perfbench/workloads.py reads it, until the benchmark harness (ROADMAP
    aim 1) stops doing so."""

    ell: int
    gamma: Fraction
    witness_primal: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]  # (sigma, tau)
    witness_dual: tuple[tuple[int, int, int], ...]  # the plan's cells (i, j, f)
    method: str


def _scaled(values) -> tuple[list[int], int]:
    """Integers N_i and D > 0 with values[i] = N_i / D, D the lcm of the
    denominators (ints and Fractions alike)."""
    big = lcm(*(x.denominator for x in values))
    return [x.numerator * (big // x.denominator) for x in values], big


def check_primal(ell: int, sigma, tau) -> str | None:
    """None if (sigma, tau) is feasible for LP(ell), else a description of
    the first violated constraint.  The coordinates (ints or Fractions) are
    scaled to integers over D, the lcm of their denominators, so the ell^2
    pair bounds |i tau_j - j sigma_i| <= 1 become |i T_j - j S_i| <= D in
    int arithmetic."""
    if len(sigma) != ell or len(tau) != ell:
        return "wrong dimension"
    scaled, big = _scaled([*sigma, *tau])
    s_int, t_int = scaled[:ell], scaled[ell:]
    for i, (s, t) in enumerate(zip(s_int, t_int), start=1):
        if s < 0:
            return f"sigma_{i} < 0"
        if t < s:
            return f"tau_{i} < sigma_{i}"
    for i, s in enumerate(s_int, start=1):
        for j, t in enumerate(t_int, start=1):
            v = i * t - j * s
            if v > big or v < -big:
                return f"|{i} tau_{j} - {j} sigma_{i}| = |{Fraction(v, big)}| > 1"
    return None


def primal_objective(ell: int, sigma, tau) -> Fraction:
    """sum_i rho(i) (tau_i - sigma_i), with rho(i) = phi(i) / i, as one
    integer numerator over D * lcm(1..ell)."""
    scaled, big = _scaled([*sigma, *tau])
    s_int, t_int = scaled[: len(sigma)], scaled[len(sigma) :]
    phi = numtheory.totients(ell)
    span = lcm(*range(1, ell + 1))
    total = sum(
        phi[i] * (span // i) * (t_int[i - 1] - s_int[i - 1]) for i in range(1, ell + 1)
    )
    return Fraction(total, big * span)


def check_dual(ell: int, plan) -> str | None:
    """None if the cells (i, j, f) of plan are a feasible dual for LP(ell),
    else a description of the first failure: every cell a tuple of three
    plain ints with 1 <= i, j <= ell, every f >= 0, then the row and column
    sums against phi by _sums_problem, the rule DualCertificate.verify
    applies to a dense matrix.

    Any cell, in the band or not, names the row i tau_j - j sigma_i <= 1 of
    LP(ell); put the multiplier f / (ij) on it.  Column tau_j of y^T A is then
    sum_i i f / (ij) = (column j sum) / j >= phi(j) / j = rho(j), and column
    sigma_i is -sum_j j f / (ij) = -(row i sum) / i >= -rho(i): dual
    feasibility, so the value sum f / (ij) is at least gamma(ell)."""
    rows = [0] * (ell + 1)
    cols = [0] * (ell + 1)
    for cell in plan:
        if (type(cell) is not tuple or list(map(type, cell)) != [int, int, int]
                or not (1 <= cell[0] <= ell and 1 <= cell[1] <= ell)):
            return f"not a cell (i, j, f) of LP({ell}): {cell!r}"
        i, j, f = cell
        if f < 0:
            return f"negative flow at ({i}, {j})"
        rows[i] += f
        cols[j] += f
    return _sums_problem(ell, rows[1:], cols[1:])


def _sums_problem(ell: int, rows, cols) -> str | None:
    """The dual rule of LP(ell), shared by check_dual and
    DualCertificate.verify: None if row i's sum rows[i - 1] is at most
    phi(i) and column j's sum cols[j - 1] at least phi(j), else the first
    failing row, then the first failing column.  cols may be lazy; it is
    read only once every row has passed."""
    phi = numtheory.totients(ell)
    for i, s in enumerate(rows, start=1):
        if s > phi[i]:
            return f"row {i} sum exceeds phi({i})"
    for j, c in enumerate(cols, start=1):
        if c < phi[j]:
            return f"column {j} sum below phi({j})"
    return None


def verify_gamma(gv: GammaValue) -> None:
    """Raise VerificationError unless the witnesses prove gamma exactly: the
    primal point is feasible with objective gamma, and the plan is a
    feasible dual whose value sum f (L/i) (L/j) / L^2, L = lcm(1..ell), is
    gamma too."""
    sigma, tau = gv.witness_primal
    problem = check_primal(gv.ell, sigma, tau)
    if problem is not None:
        raise VerificationError(f"gamma({gv.ell}): primal witness infeasible: {problem}")
    if primal_objective(gv.ell, sigma, tau) != gv.gamma:
        raise VerificationError(f"gamma({gv.ell}): primal objective mismatch")
    problem = check_dual(gv.ell, gv.witness_dual)
    if problem is not None:
        raise VerificationError(f"gamma({gv.ell}): dual witness rejected: {problem}")
    big = lcm(*range(1, gv.ell + 1))
    total = sum(f * (big // i) * (big // j) for i, j, f in gv.witness_dual)
    if total * gv.gamma.denominator != gv.gamma.numerator * big * big:
        raise VerificationError(f"gamma({gv.ell}): duality gap")


# --- northwest-corner path --------------------------------------------------


def _northwest_plan(ell: int) -> list[tuple[int, int, int]]:
    """The northwest-corner plan of the transportation problem behind
    LP(ell), as cells (i, j, f) in walk order: rows i = 1..ell ship phi(i),
    columns j = ell..1 take phi(j).  From (1, ell), each cell ships
    f = min(what row i has left, what column j still needs); the walk then
    moves to the next row once row i is used up, else to the next lower
    column.  That is 2 ell - 1 cells, one with f = 0 wherever a row and a
    column run out together.  VerificationError if a cell has i + j <= ell,
    outside the band."""
    phi = numtheory.totients(ell)
    cells = []
    i, j = 1, ell
    supply, demand = phi[1], phi[ell]
    while True:
        if i + j <= ell:
            raise VerificationError(f"gamma({ell}): northwest cell ({i}, {j}) is outside the band")
        f = min(supply, demand)
        cells.append((i, j, f))
        supply -= f
        demand -= f
        if supply:
            j -= 1
            demand = phi[j]
        elif i < ell:
            i += 1
            supply = phi[i]
        else:
            return cells


def _staircase_potentials(ell: int, cells) -> tuple[list[Fraction], list[Fraction]]:
    """Potentials u, v (index 0 unused) with v_j - u_i = 1/(ij) on every
    cell of the plan, shifted so that min u = 0.  Each cell after the first
    shares its column (a move down) or its row (a move left) with the cell
    before it, so it fixes the potential of the row or column it enters;
    the walk starts from v_ell = 0."""
    u = [ZERO] * (ell + 1)
    v = [ZERO] * (ell + 1)
    row = 0
    for i, j, _ in cells:
        if i != row:
            u[i] = v[j] - Fraction(1, i * j)
            row = i
        else:
            v[j] = u[i] + Fraction(1, i * j)
    low = min(u[1:])
    return [x - low for x in u], [x - low for x in v]


@cache  # a VerificationError leaves nothing cached
def _solve_northwest(ell: int) -> GammaValue:
    """gamma(ell) with both witnesses, from the northwest-corner plan, in
    O(ell) exact steps before verify_gamma's check; no LP solver.

    Put u_i = sigma_i / i and v_j = tau_j / j.  The pair row
    i tau_j - j sigma_i <= 1 reads v_j - u_i <= 1/(ij), and the objective
    sum_i phi(i) (v_i - u_i).  With the link multipliers at zero, the dual
    of the band relaxation (the links and the pair rows with
    i + j >= ell + 1, where dual_matrix lives) is then a transportation
    problem: row i ships phi(i), column j takes phi(j), a unit on (i, j)
    costs 1/(ij), only the band cells may carry flow, and the total cost
    is minimised.  A flow f on
    (i, j) is the multiplier f/(ij) on the row (i, j) (see check_dual).

    With rows in ascending i and columns in descending j the cost array is
    Monge: for i < i' and j > j',
    1/(ij) + 1/(i'j') - 1/(ij') - 1/(i'j) = (1/i - 1/i')(1/j - 1/j') < 0,
    and the cells outside the band (i + j <= ell) form the upper-right
    staircase.  The northwest-corner rule is optimal on such arrays
    (Hoffman 1963; Burkard, Klinz and Rudolf 1996), so _northwest_plan is
    an optimal dual.  Its 2 ell - 1 cells form a spanning tree of the rows
    and columns, and _staircase_potentials makes each of them a tight pair
    row (complementary slackness); sigma_i = i u_i and tau_j = j v_j.

    The theorem only explains why the pair should verify: verify_gamma
    proves it, over every row of LP(ell), dual feasibility and equal
    objectives, and its VerificationError reaches the caller."""
    cells = _northwest_plan(ell)
    u, v = _staircase_potentials(ell, cells)
    sigma = tuple(i * u[i] for i in range(1, ell + 1))
    tau = tuple(j * v[j] for j in range(1, ell + 1))
    gv = GammaValue(
        ell=ell,
        gamma=primal_objective(ell, sigma, tau),
        witness_primal=(sigma, tau),
        witness_dual=tuple(cells),
        method="northwest",
    )
    verify_gamma(gv)
    return gv


# --- public entry -----------------------------------------------------------

def _integer_ell(name: str, ell) -> int:
    """ell as a plain int; TypeError naming the entry for a bool or a non-int."""
    if not isinstance(ell, bool) and hasattr(type(ell), "__index__"):
        return index(ell)
    raise TypeError(f"{name} needs an integer ell, got {ell!r}")


def _check_budget(ell: int) -> None:
    """BudgetError if ell is past LP_SIZE_BUDGET; callers check before
    solving anything."""
    if ell > LP_SIZE_BUDGET:
        raise BudgetError(f"ell = {ell} exceeds the LP size budget {LP_SIZE_BUDGET}")


def gamma(ell: int) -> GammaValue:
    """Exact optimum of LP(ell) with verified primal and dual witnesses,
    from the northwest-corner plan and its staircase potentials
    (_solve_northwest), memoized.  VerificationError if anything fails to
    verify; BudgetError above LP_SIZE_BUDGET.
    """
    ell = _integer_ell("gamma", ell)
    if ell < 1:
        raise ValueError(f"gamma needs ell >= 1, got {ell}")
    _check_budget(ell)
    return _solve_northwest(ell)


# --- dual certificate matrices ---------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """A matrix of bytes rows feasible for the transposed program: row i
    sums to at most phi(i), column j collects at least phi(j).  That rule
    lives in _sums_problem, which check_dual also applies to gamma's plan
    of sparse cells.  Its value sum_{i,j} a[i][j] / (i * j) is an upper bound
    for gamma(ell).  The value is kept from its first read, outside ==,
    hash and repr; verify() checks the matrix on every call."""

    ell: int
    matrix: tuple[bytes, ...]
    _value: Fraction | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def value(self) -> Fraction:
        """sum_{i,j} a[i][j] / (i * j), read from the bytes rows verify()
        accepts; it checks nothing itself."""
        # With L = lcm(1..n), a / (i * j) = a * (L / i) * (L / j) / L^2, so the
        # sum is one integer per row over a single denominator.  A row of 0s
        # and 1s (every row of dual_matrix) adds the scales L / j of its
        # nonzero columns; any other row takes the dot product.
        if self._value is None:
            n = max([len(self.matrix), *map(len, self.matrix)])
            big = lcm(*range(1, n + 1))
            scale = [big // j for j in range(1, n + 1)]
            total = 0
            for s, row in zip(scale, self.matrix):
                if row.count(0) + row.count(1) == len(row):
                    total += s * sum(compress(scale, row))
                else:
                    total += s * sum(map(mul, row, scale))
            object.__setattr__(self, "_value", Fraction(total, big * big))
        return self._value

    def verify(self) -> None:
        """Check the shape, that every row is bytes (so every entry is
        0..255, and none needs a scan for negatives), and the row and column
        sums by _sums_problem; every entry is read again on every call.

        P = sum of the rows read as little-endian base-256 integers holds
        the column sums c_j in lanes j = 1..ell, carries aside.  A carry
        takes 256 from one lane and adds 1 to the next, and 256 = 1
        (mod 255), so each lowers the digit sum of P by exactly 255: the ell
        digits of P are the column sums exactly when P fits in ell lanes and
        its digits add up to the total of the row sums.  Otherwise the
        columns are summed one by one."""
        ell = self.ell
        if len(self.matrix) != ell or any(len(r) != ell for r in self.matrix):
            raise VerificationError(f"certificate matrix is not {ell} x {ell}")
        sums = []
        packed = 0
        for i, row in enumerate(self.matrix, start=1):
            if type(row) is not bytes:
                raise VerificationError(f"row {i} is not bytes")
            sums.append(sum(row))
            packed += int.from_bytes(row, "little")
        columns = map(sum, zip(*self.matrix))
        if packed.bit_length() <= 8 * ell:
            digits = packed.to_bytes(ell, "little")
            if sum(digits) == sum(sums):
                columns = digits
        problem = _sums_problem(ell, sums, columns)
        if problem is not None:
            raise VerificationError(problem)


@cache
def _coprime_mask(i: int) -> bytes:
    """Two periods of the mask of residues coprime to i: byte z is 1 exactly
    when gcd(z, i) = 1, for 0 <= z < 2i, so any rotation of one period is
    one slice.  Kept for every i a certificate up to LP_SIZE_BUDGET reads,
    and shared by all of them."""
    mask = bytearray(b"\x01") * i
    for p in numtheory.prime_factors(i):
        mask[::p] = bytes(i // p)
    return bytes(mask) * 2


def _dual_rows(ell: int) -> list[bytes]:
    """Rows of dual_matrix(ell) as bytes: entry (i, j) is 1 exactly when
    i + j >= ell + 1 and gcd(i, j) = 1.  Row i's window j = ell+1-i .. ell
    holds i consecutive j, one of each residue mod i, so it is the mask of
    residues coprime to i rotated to start at (ell + 1 - i) mod i."""
    # past the largest LP a certificate is a one-off (certify-dual --l, one
    # per process), so its masks are built and dropped, not kept
    mask = _coprime_mask if ell <= LP_SIZE_BUDGET else _coprime_mask.__wrapped__
    rows = []
    for i in range(1, ell + 1):
        s = (ell + 1 - i) % i
        rows.append(bytes(ell - i) + mask(i)[s : s + i])
    return rows


def _certified_dual(ell: int, perturbed: bool) -> DualCertificate:
    """dual_matrix(ell) or perturbed_dual_matrix(ell), verified and with its
    exact value checked (and kept, so a caller that reads it again does not
    compute it again)."""
    if perturbed and ell < 4:
        raise ValueError(f"perturbed_dual_matrix needs ell >= 4, got {ell}")
    if ell < 1:
        raise ValueError(f"dual_matrix needs ell >= 1, got {ell}")
    rows = _dual_rows(ell)
    if perturbed:
        last = [list(row) for row in rows[-3:]]  # rows ell-2, ell-1, ell

        def bump(i: int, j: int, delta: int) -> None:
            last[i - ell + 2][j - 1] += delta

        bump(ell - 2, ell - 1, -1)
        bump(ell - 1, ell - 2, -1)
        bump(ell - 1, ell, -1)
        bump(ell, ell - 1, -1)
        bump(ell - 2, ell, +1)
        bump(ell, ell - 2, +1)
        bump(ell - 1, ell - 1, +2)
        rows[-3:] = map(bytes, last)
    cert = DualCertificate(ell=ell, matrix=tuple(rows))
    cert.verify()
    value = cert.value
    if perturbed:
        expected = gamma_upper_bound(ell)
        if value != expected:
            raise VerificationError(f"perturbed_dual_matrix({ell}) value {value} != {expected}")
    elif value != 1:
        raise VerificationError(f"dual_matrix({ell}) value is {value}, not 1")
    return cert


def dual_matrix(ell: int) -> DualCertificate:
    """Entry (i, j) is 1 exactly when i + j >= ell + 1 and gcd(i, j) = 1.
    Each row i then covers a window of i consecutive j's, so row and column
    sums are exactly phi, and the value is exactly 1.  The rows come from
    _dual_rows; the certificate is verified and its value checked here."""
    return _certified_dual(_integer_ell("dual_matrix", ell), perturbed=False)


def perturbed_dual_matrix(ell: int) -> DualCertificate:
    """Shift one unit of mass in the bottom-right corner of dual_matrix(ell):

        -1 at (ell-2, ell-1), (ell-1, ell-2), (ell-1, ell), (ell, ell-1)
        +1 at (ell-2, ell), (ell, ell-2);  +2 at (ell-1, ell-1)

    Row and column sums are unchanged and the value drops to
    1 - 2 * (1/(ell-2) - 1/(ell-1)) * (1/(ell-1) - 1/ell) < 1.

    The unperturbed rows come straight from _dual_rows, so only this
    certificate is built and verified; only its last three rows are copied
    and bumped.
    """
    return _certified_dual(_integer_ell("perturbed_dual_matrix", ell), perturbed=True)


def gamma_upper_bound(ell: int) -> Fraction:
    """Certificate-only upper bound for gamma(ell): 1 for ell <= 3, the
    perturbed value below 1 for ell >= 4.  No LP solve involved."""
    ell = _integer_ell("gamma_upper_bound", ell)
    if ell < 1:
        raise ValueError(f"gamma_upper_bound needs ell >= 1, got {ell}")
    if ell <= 3:
        return ONE
    # 1 - 2 (1/(ell-2) - 1/(ell-1)) (1/(ell-1) - 1/ell) = 1 - 2/D
    big = (ell - 2) * (ell - 1) ** 2 * ell
    return Fraction(big - 2, big)


# --- presentation helpers ---------------------------------------------------


def format_round4(x: Fraction) -> str:
    """Decimal string with exactly 4 places, rounding half away from zero."""
    q = x * 10_000
    n, d = q.numerator, q.denominator
    if n >= 0:
        scaled = (2 * n + d) // (2 * d)
    else:
        scaled = -((2 * -n + d) // (2 * d))
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10_000}.{scaled % 10_000:04d}"


def density_table_csv(ell_max: int) -> str:
    """CSV of rho, alpha, gamma, beta rounded to 4 decimals, ell = 1..ell_max,
    gamma from gamma(ell); BudgetError before any solve if ell_max is past
    LP_SIZE_BUDGET."""
    ell_max = _integer_ell("density_table_csv", ell_max)
    if ell_max < 1:
        raise ValueError(f"density_table_csv needs ell_max >= 1, got {ell_max}")
    _check_budget(ell_max)
    lines = ["ell,rho,alpha,gamma,beta"]
    for ell in range(1, ell_max + 1):
        values = (numtheory.rho(ell), numtheory.alpha(ell), gamma(ell).gamma,
                  numtheory.beta(ell))
        lines.append(",".join([str(ell), *map(format_round4, values)]))
    return "\n".join(lines) + "\n"

