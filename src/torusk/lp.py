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

Two solution paths, both ending in exact rational certificates:

* the default for every ell: a floating-point solve (HiGHS) proposes an
  active set, the vertex and multipliers are reconstructed by sparse exact
  elimination (every row has two nonzeros), and the pair is accepted only
  if primal feasibility, dual feasibility and equality of objectives all
  verify exactly; any failure falls back to the simplex path;
* exact simplex with constraint generation over the O(ell^2) pair
  constraints: the fallback, method="simplex", and the independent oracle
  the tests compare the default path against.

A separate, solver-independent upper bound comes from explicit matrices
feasible for the dual of the relaxed program: dual_matrix(ell) has value
exactly 1, and perturbed_dual_matrix(ell) pushes it strictly below 1 for
ell >= 4, which is the fact that separates the k+2/k+3/k+4 patterns.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

from torusk import numtheory
from torusk.errors import BudgetError, CacheError, VerificationError
from torusk.simplex import LpSolution, solve_max, solve_rational_system

ZERO = Fraction(0)
ONE = Fraction(1)

LP_SIZE_BUDGET = 256  # largest ell the solver will accept
_GEN_BATCH = 2  # violated rows added per round, as a multiple of ell

METHODS = ("guided", "simplex")

# Row keys: ("link", i) is sigma_i - tau_i <= 0;
# ("pair", i, j, s) is s * (i * tau_j - j * sigma_i) <= 1 with s = +-1.
RowKey = tuple


@dataclass(frozen=True)
class LpDualWitness:
    """Exact multipliers for the inequality rows of LP(ell), supported on
    finitely many rows; value = sum of multipliers times right-hand sides."""

    ell: int
    multipliers: tuple[tuple[RowKey, Fraction], ...]
    value: Fraction


@dataclass(frozen=True)
class GammaValue:
    ell: int
    gamma: Fraction
    witness_primal: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]  # (sigma, tau)
    witness_dual: LpDualWitness | None
    method: str  # "simplex" or "guided"


def _objective(ell: int):
    rhos = [numtheory.rho(i) for i in range(1, ell + 1)]
    return [-r for r in rhos] + list(rhos)


def _row_entries(ell: int, key: RowKey) -> tuple[dict[int, int], int]:
    """The row's two nonzero coefficients by column, and its right-hand side."""
    if key[0] == "link":
        i = key[1]
        return {i - 1: 1, ell + i - 1: -1}, 0
    _, i, j, s = key
    return {ell + j - 1: s * i, i - 1: -s * j}, 1


def _pair_value(sigma, tau, i, j) -> Fraction:
    return i * tau[j - 1] - j * sigma[i - 1]


def check_primal(ell: int, sigma, tau) -> str | None:
    """None if (sigma, tau) is feasible for LP(ell), else a description of
    the first violated constraint.  The coordinates (ints or Fractions) are
    scaled to integers over D, the lcm of their denominators, so the ell^2
    pair bounds |i tau_j - j sigma_i| <= 1 become |i T_j - j S_i| <= D in
    int arithmetic."""
    if len(sigma) != ell or len(tau) != ell:
        return "wrong dimension"
    big = lcm(*(x.denominator for x in sigma), *(x.denominator for x in tau))
    s_int = [x.numerator * (big // x.denominator) for x in sigma]
    t_int = [x.numerator * (big // x.denominator) for x in tau]
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
    return sum(
        numtheory.rho(i) * (tau[i - 1] - sigma[i - 1]) for i in range(1, ell + 1)
    )


def _is_row_key(ell: int, key) -> bool:
    """Whether key names a row of LP(ell): ("link", i) or ("pair", i, j, s)
    with 1 <= i, j <= ell and s = +-1, all plain ints."""
    if not isinstance(key, tuple) or not key:
        return False
    if key[0] == "link" and len(key) == 2:
        indices = key[1:]
    elif key[0] == "pair" and len(key) == 4 and type(key[3]) is int and key[3] in (1, -1):
        indices = key[1:3]
    else:
        return False
    return all(type(i) is int and 1 <= i <= ell for i in indices)


def check_dual(ell: int, witness: LpDualWitness) -> str | None:
    """None if the multipliers certify value >= optimum (dual feasibility).
    Every key must name a row of LP(ell); anything else is rejected, so a
    witness read from outside the program cannot index past the columns or
    scale a row."""
    col = [ZERO] * (2 * ell)  # accumulated y^T A per structural column
    value = ZERO
    for key, y in witness.multipliers:
        if not _is_row_key(ell, key):
            return f"not a row of LP({ell}): {key!r}"
        if y < 0:
            return f"negative multiplier on {key}"
        entries, rhs = _row_entries(ell, key)
        for idx, a in entries.items():
            col[idx] += y * a
        value += y * rhs
    cvec = _objective(ell)
    for idx in range(2 * ell):
        if col[idx] < cvec[idx]:
            return f"dual infeasible at column {idx}"
    if value != witness.value:
        return "stated value does not match multipliers"
    return None


def verify_gamma(gv: GammaValue) -> None:
    """Raise VerificationError unless the witnesses prove gamma exactly."""
    sigma, tau = gv.witness_primal
    problem = check_primal(gv.ell, sigma, tau)
    if problem is not None:
        raise VerificationError(f"gamma({gv.ell}): primal witness infeasible: {problem}")
    if primal_objective(gv.ell, sigma, tau) != gv.gamma:
        raise VerificationError(f"gamma({gv.ell}): primal objective mismatch")
    if gv.witness_dual is None:
        raise VerificationError(f"gamma({gv.ell}): no dual witness")
    problem = check_dual(gv.ell, gv.witness_dual)
    if problem is not None:
        raise VerificationError(f"gamma({gv.ell}): dual witness rejected: {problem}")
    if gv.witness_dual.value != gv.gamma:
        raise VerificationError(f"gamma({gv.ell}): duality gap")


# --- exact simplex path -----------------------------------------------------


def _solve_by_generation(ell: int) -> GammaValue:
    """Exact simplex over a growing working set of rows.

    The initial rows (links and diagonal pairs) already bound the objective:
    along any recession direction tau and sigma move together, so the
    objective cannot improve along a ray and the simplex never reports
    unbounded.  At each round every violated pair constraint is found by an
    exact scan; when none remain the incumbent is optimal for the full
    program and the working-set multipliers (zero elsewhere) are dual
    feasible for it.
    """
    cvec = _objective(ell)
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
                v = _pair_value(sigma, tau, i, j)
                if v > 1:
                    violated.append((v - 1, ("pair", i, j, 1)))
                elif v < -1:
                    violated.append((-v - 1, ("pair", i, j, -1)))
        violated = [(excess, key) for excess, key in violated if key not in known]
        if not violated:
            return _package(ell, sol, work, "simplex")
        violated.sort(key=lambda t: (-t[0], t[1]))
        for _, key in violated[: _GEN_BATCH * ell]:
            work.append(key)
            known.add(key)


def _package(ell: int, sol: LpSolution, work: list[RowKey], method: str) -> GammaValue:
    multipliers = tuple(
        (key, y) for key, y in zip(work, sol.duals) if y != 0
    )
    witness = LpDualWitness(ell=ell, multipliers=multipliers, value=sol.objective)
    gv = GammaValue(
        ell=ell,
        gamma=sol.objective,
        witness_primal=(tuple(sol.x[:ell]), tuple(sol.x[ell:])),
        witness_dual=witness,
        method=method,
    )
    verify_gamma(gv)
    return gv


# --- float-guided path ------------------------------------------------------


def _all_row_keys(ell: int):
    yield from (("link", i) for i in range(1, ell + 1))
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            yield ("pair", i, j, 1)
            yield ("pair", i, j, -1)


def _solve_guided(ell: int) -> GammaValue | None:
    """Propose an optimal active set with HiGHS, then rebuild and verify the
    vertex and multipliers exactly.  Returns None when anything fails to
    check out; the caller falls back to the exact simplex."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    keys = list(_all_row_keys(ell))
    rows = [_row_entries(ell, key) for key in keys]
    n = 2 * ell
    data = [float(a) for entries, _ in rows for a in entries.values()]
    cols = [idx for entries, _ in rows for idx in entries]
    # every row has exactly two entries, so row r owns data[2r:2r + 2]
    a_ub = csr_matrix((data, cols, range(0, len(cols) + 1, 2)), shape=(len(keys), n))
    rhs_f = np.array([float(b) for _, b in rows])
    cvec = _objective(ell)
    c_f = np.array([-float(v) for v in cvec])  # linprog minimizes
    res = linprog(c_f, A_ub=a_ub, b_ub=rhs_f, bounds=(0, None), method="highs")
    if not res.success:
        return None

    marginals = res.ineqlin.marginals
    slacks = res.slack
    support = [r for r in range(len(keys)) if abs(marginals[r]) > 1e-9]
    tight = [r for r in range(len(keys)) if abs(slacks[r]) < 1e-7]
    pos = {idx for idx in range(n) if res.x[idx] > 1e-9}
    if not support or not pos:
        return None

    # Exact vertex: active rows restricted to the positive coordinates; the
    # other coordinates then appear in no row and come back as zero.
    x = solve_rational_system(
        [{idx: a for idx, a in rows[r][0].items() if idx in pos} for r in tight],
        [rows[r][1] for r in tight],
        n,
    )
    if x is None:
        return None
    sigma, tau = x[:ell], x[ell:]
    if check_primal(ell, sigma, tau) is not None:
        return None
    g = primal_objective(ell, sigma, tau)

    # Exact multipliers on the guessed support: y^T A = c on the coordinates
    # where the vertex is nonzero (complementary slackness).
    eqs: dict[int, dict[int, int]] = {idx: {} for idx in range(n) if x[idx] != 0}
    for t, r in enumerate(support):
        for idx, a in rows[r][0].items():
            if idx in eqs:
                eqs[idx][t] = a
    ysol = solve_rational_system(list(eqs.values()), [cvec[idx] for idx in eqs], len(support))
    if ysol is None:
        return None
    multipliers = tuple(
        (keys[r], y) for r, y in zip(support, ysol) if y != 0
    )
    value = sum((y * rows[r][1] for r, y in zip(support, ysol)), ZERO)
    witness = LpDualWitness(ell=ell, multipliers=multipliers, value=value)
    if value != g or check_dual(ell, witness) is not None:
        return None
    gv = GammaValue(
        ell=ell,
        gamma=g,
        witness_primal=(tuple(sigma), tuple(tau)),
        witness_dual=witness,
        method="guided",
    )
    verify_gamma(gv)
    return gv


# --- public entry -----------------------------------------------------------

_gamma_lock = threading.Lock()
_gamma_memo: dict[int, GammaValue] = {}


def gamma(ell: int, method: str = "guided") -> GammaValue:
    """Exact optimum of LP(ell) with verified primal and dual witnesses.

    method: "guided" (default), the HiGHS-guided exact reconstruction,
    which falls back to the simplex if anything fails to verify; or
    "simplex", exact generation only.  A "simplex" request never
    returns or replaces a memo entry made by the guided path, so it stays an
    independent oracle.
    """
    if ell < 1:
        raise ValueError(f"gamma needs ell >= 1, got {ell}")
    if ell > LP_SIZE_BUDGET:
        raise BudgetError(
            f"ell = {ell} exceeds the LP size budget {LP_SIZE_BUDGET}"
        )
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    with _gamma_lock:
        hit = _gamma_memo.get(ell)
    if hit is not None and (method != "simplex" or hit.method == "simplex"):
        return hit
    if method == "simplex":
        gv = _solve_by_generation(ell)
    else:
        gv = _solve_guided(ell) or _solve_by_generation(ell)
    with _gamma_lock:
        _gamma_memo.setdefault(ell, gv)
    return gv


def primal_witness_small(ell: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The hand-checkable optimal points for ell <= 3 (objective exactly 1)."""
    table = {
        1: ((ZERO,), (ONE,)),
        2: (
            (ZERO, Fraction(1, 2)),
            (Fraction(3, 4), ONE),
        ),
        3: (
            (ZERO, Fraction(1, 3), Fraction(2, 3)),
            (Fraction(5, 9), Fraction(7, 9), ONE),
        ),
    }
    if ell not in table:
        raise ValueError(f"primal_witness_small covers ell in {{1, 2, 3}}, got {ell}")
    sigma, tau = table[ell]
    problem = check_primal(ell, sigma, tau)
    if problem is not None:
        raise VerificationError(f"small witness infeasible at ell={ell}: {problem}")
    if primal_objective(ell, sigma, tau) != 1:
        raise VerificationError(f"small witness objective not 1 at ell={ell}")
    return table[ell]


# --- dual certificate matrices ---------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """A non-negative integer matrix feasible for the transposed program:
    row i sums to at most phi(i), column j collects at least phi(j).  Its
    value sum_{i,j} a[i][j] / (i * j) is an upper bound for gamma(ell)."""

    ell: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def value(self) -> Fraction:
        # With L = lcm(1..n), a / (i * j) = a * (L / i) * (L / j) / L^2, so the
        # sum is one integer dot product per row over a single denominator.
        n = max([len(self.matrix), *map(len, self.matrix)])
        big = lcm(*range(1, n + 1))
        scale = [big // j for j in range(1, n + 1)]
        total = sum(
            s * sum(map(mul, row, scale)) for s, row in zip(scale, self.matrix)
        )
        return Fraction(total, big * big)

    def verify(self) -> None:
        ell = self.ell
        if len(self.matrix) != ell or any(len(r) != ell for r in self.matrix):
            raise VerificationError(f"certificate matrix is not {ell} x {ell}")
        for i, row in enumerate(self.matrix, start=1):
            if min(row) < 0:
                raise VerificationError(f"negative entry in row {i}")
            if sum(row) > numtheory.totient(i):
                raise VerificationError(f"row {i} sum exceeds phi({i})")
        for j, col in enumerate(zip(*self.matrix), start=1):
            if sum(col) < numtheory.totient(j):
                raise VerificationError(f"column {j} sum below phi({j})")


def dual_matrix(ell: int) -> DualCertificate:
    """Entry (i, j) is 1 exactly when i + j >= ell + 1 and gcd(i, j) = 1.
    Each row i then covers a window of i consecutive j's, so row and column
    sums are exactly phi, and the value is exactly 1."""
    if ell < 1:
        raise ValueError(f"dual_matrix needs ell >= 1, got {ell}")
    matrix = tuple(
        (0,) * (ell - i)
        + tuple(1 if gcd(i, j) == 1 else 0 for j in range(ell + 1 - i, ell + 1))
        for i in range(1, ell + 1)
    )
    cert = DualCertificate(ell=ell, matrix=matrix)
    cert.verify()
    if cert.value != 1:
        raise VerificationError(f"dual_matrix({ell}) value is {cert.value}, not 1")
    return cert


def perturbed_dual_matrix(ell: int) -> DualCertificate:
    """Shift one unit of mass in the bottom-right corner of dual_matrix(ell):

        -1 at (ell-2, ell-1), (ell-1, ell-2), (ell-1, ell), (ell, ell-1)
        +1 at (ell-2, ell), (ell, ell-2);  +2 at (ell-1, ell-1)

    Row and column sums are unchanged and the value drops to
    1 - 2 * (1/(ell-2) - 1/(ell-1)) * (1/(ell-1) - 1/ell) < 1.
    """
    if ell < 4:
        raise ValueError(f"perturbed_dual_matrix needs ell >= 4, got {ell}")
    base = dual_matrix(ell).matrix
    m = [list(row) for row in base]

    def bump(i: int, j: int, delta: int) -> None:
        m[i - 1][j - 1] += delta

    bump(ell - 2, ell - 1, -1)
    bump(ell - 1, ell - 2, -1)
    bump(ell - 1, ell, -1)
    bump(ell, ell - 1, -1)
    bump(ell - 2, ell, +1)
    bump(ell, ell - 2, +1)
    bump(ell - 1, ell - 1, +2)
    cert = DualCertificate(ell=ell, matrix=tuple(tuple(r) for r in m))
    cert.verify()
    expected = gamma_upper_bound(ell)
    if cert.value != expected:
        raise VerificationError(
            f"perturbed_dual_matrix({ell}) value {cert.value} != {expected}"
        )
    return cert


def gamma_upper_bound(ell: int) -> Fraction:
    """Certificate-only upper bound for gamma(ell): 1 for ell <= 3, the
    perturbed value below 1 for ell >= 4.  No LP solve involved."""
    if ell < 1:
        raise ValueError(f"gamma_upper_bound needs ell >= 1, got {ell}")
    if ell <= 3:
        return ONE
    return 1 - 2 * (Fraction(1, ell - 2) - Fraction(1, ell - 1)) * (
        Fraction(1, ell - 1) - Fraction(1, ell)
    )


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


def density_table_csv(ell_max: int, method: str = "guided") -> str:
    """CSV of rho, alpha, gamma, beta rounded to 4 decimals, ell = 1..ell_max."""
    lines = ["ell,rho,alpha,gamma,beta"]
    for ell in range(1, ell_max + 1):
        t = numtheory.triples(ell)
        g = gamma(ell, method=method).gamma
        lines.append(
            f"{ell},{format_round4(t.rho)},{format_round4(t.alpha)},"
            f"{format_round4(g)},{format_round4(t.beta)}"
        )
    return "\n".join(lines) + "\n"


# --- gamma cache ------------------------------------------------------------

_GAMMA_HEADER = "torusk-gamma 2"


def _checksum(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def save_gamma_cache(path: str | Path, values: dict[int, GammaValue]) -> None:
    """One file: the header, one JSON record per ell (value, method and both
    witnesses, so a later run re-verifies without re-solving), then a sha256
    line over everything above it.  Written to a temporary file in the same
    directory and moved into place, so a reader never sees a partial file."""
    path = Path(path)
    lines = [_GAMMA_HEADER]
    for ell in sorted(values):
        gv = values[ell]
        sigma, tau = gv.witness_primal
        lines.append(
            json.dumps(
                {
                    "ell": ell,
                    "gamma": str(gv.gamma),
                    "method": gv.method,
                    "sigma": [str(v) for v in sigma],
                    "tau": [str(v) for v in tau],
                    "dual": [[list(key), str(y)] for key, y in gv.witness_dual.multipliers],
                }
            )
        )
    lines.append(f"sha256 {_checksum(lines)}")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_gamma_cache(path: str | Path) -> dict[int, GammaValue]:
    """Load a cache written by save_gamma_cache and re-verify every record.
    CacheError on an unreadable, malformed or checksum-failing file or a
    repeated ell; VerificationError if a stored witness does not certify
    its value."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2 or lines[0] != _GAMMA_HEADER:
        raise CacheError(f"{path}: missing or unknown header")
    tag, _, digest = lines[-1].partition(" ")
    if tag != "sha256" or digest != _checksum(lines[:-1]):
        raise CacheError(f"{path}: checksum mismatch")
    out: dict[int, GammaValue] = {}
    for n, line in enumerate(lines[1:-1], start=2):
        try:
            rec = json.loads(line)
            ell = int(rec["ell"])
            g = Fraction(rec["gamma"])
            multipliers = tuple((tuple(key), Fraction(y)) for key, y in rec["dual"])
            gv = GammaValue(
                ell=ell,
                gamma=g,
                witness_primal=(
                    tuple(Fraction(v) for v in rec["sigma"]),
                    tuple(Fraction(v) for v in rec["tau"]),
                ),
                witness_dual=LpDualWitness(ell=ell, multipliers=multipliers, value=g),
                method=rec["method"],
            )
        except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise CacheError(f"{path}: bad record on line {n}") from exc
        if ell < 1 or ell in out or gv.method not in METHODS:
            raise CacheError(f"{path}: bad record on line {n}")
        verify_gamma(gv)
        out[ell] = gv
    return out


def warm_gamma_memo(values: dict[int, GammaValue]) -> None:
    with _gamma_lock:
        _gamma_memo.update(values)


def gamma_memo_snapshot() -> dict[int, GammaValue]:
    with _gamma_lock:
        return dict(_gamma_memo)
