"""gamma(ell): exact solves, witnesses, certificates."""

import hashlib
import re
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lp_oracle import (
    SimplexGamma,
    fraction_check_dual,
    objective,
    row_entries,
    solve_by_generation,
    solve_max,
    verify_simplex_gamma,
)
from plan_mutants import PLAN_MUTANTS, patch_plan
from torusk import lp, numtheory
from torusk.errors import BudgetError, VerificationError
from torusk.lp import (
    DualCertificate,
    GammaValue,
    LP_SIZE_BUDGET,
    _dual_rows,
    _solve_northwest,
    check_dual,
    check_primal,
    density_table_csv,
    dual_matrix,
    format_round4,
    gamma,
    gamma_upper_bound,
    perturbed_dual_matrix,
    primal_objective,
    verify_gamma,
)

# gamma rounded to 4 decimals, ell = 1..12 (cross-checked against the
# certificate bound and the small witnesses below)
ROUNDED = {
    1: "1.0000",
    2: "1.0000",
    3: "1.0000",
    4: "0.9722",
    5: "0.9917",
    6: "0.9667",
    7: "0.9752",
    8: "0.9687",
    9: "0.9695",
    10: "0.9586",
    11: "0.9679",
    12: "0.9601",
}


def test_gamma_4_exact():
    assert gamma(4).gamma == Fraction(35, 36)


def test_gamma_rounded_small():
    # the northwest path; test_01 checks the oracle's rounding for ell = 1..20
    for ell, want in ROUNDED.items():
        assert format_round4(gamma(ell).gamma) == want


def test_gamma_is_one_up_to_three():
    for ell in (1, 2, 3):
        assert gamma(ell).gamma == 1


# hand-checkable optimal points (sigma, tau) for ell <= 3, objective exactly 1
SMALL_WITNESSES = {
    1: ((Fraction(0),), (Fraction(1),)),
    2: ((Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(1))),
    3: (
        (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(5, 9), Fraction(7, 9), Fraction(1)),
    ),
}


def test_small_witnesses_feasible_and_optimal():
    for ell, (sigma, tau) in SMALL_WITNESSES.items():
        assert check_primal(ell, sigma, tau) is None
        assert primal_objective(ell, sigma, tau) == 1


def fraction_check_primal(ell, sigma, tau):
    """Oracle for check_primal: the same scan in Fraction arithmetic."""
    if len(sigma) != ell or len(tau) != ell:
        return "wrong dimension"
    for i in range(1, ell + 1):
        if sigma[i - 1] < 0:
            return f"sigma_{i} < 0"
        if tau[i - 1] < sigma[i - 1]:
            return f"tau_{i} < sigma_{i}"
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            v = i * tau[j - 1] - j * sigma[i - 1]
            if v > 1 or v < -1:
                return f"|{i} tau_{j} - {j} sigma_{i}| = |{v}| > 1"
    return None


coordinates = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=60)


@st.composite
def primal_points(draw):
    """(claimed ell, sigma, tau): random points, which are mostly infeasible,
    and sigma_i = c i, tau_j = c j + d with c >= 0 and 0 <= d <= 1/ell, which
    are feasible (i tau_j - j sigma_i = i d, tight at i = ell when
    d = 1/ell), sometimes with one coordinate moved."""
    ell = draw(st.integers(1, 12))
    if draw(st.booleans()):
        c = draw(st.fractions(0, 2, max_denominator=60))
        tight = st.just(Fraction(1, ell))
        d = draw(tight | st.fractions(0, Fraction(1, ell), max_denominator=60))
        sigma = [c * i for i in range(1, ell + 1)]
        tau = [c * j + d for j in range(1, ell + 1)]
        if draw(st.booleans()):
            side = draw(st.sampled_from((sigma, tau)))
            side[draw(st.integers(0, ell - 1))] += draw(coordinates)
    else:
        sigma = draw(st.lists(coordinates, min_size=ell, max_size=ell))
        tau = draw(st.lists(coordinates, min_size=ell, max_size=ell))
    claimed = draw(st.sampled_from((ell, ell, ell, ell + 1)))
    return claimed, sigma, tau


@given(primal_points())
@settings(max_examples=400, deadline=None)
def test_check_primal_matches_fraction_scan(case):
    ell, sigma, tau = case
    assert check_primal(ell, sigma, tau) == fraction_check_primal(ell, sigma, tau)


def fraction_primal_objective(ell, sigma, tau) -> Fraction:
    """Oracle for primal_objective: the plain Fraction sum."""
    return sum(
        (numtheory.rho(i) * (tau[i - 1] - sigma[i - 1]) for i in range(1, ell + 1)),
        Fraction(0),
    )


@given(primal_points())
@settings(max_examples=300, deadline=None)
def test_primal_objective_matches_fraction_sum(case):
    _, sigma, tau = case
    ell = len(sigma)
    assert primal_objective(ell, sigma, tau) == fraction_primal_objective(ell, sigma, tau)


def test_objective_matches_rho():
    rhos = [numtheory.rho(i) for i in range(1, LP_SIZE_BUDGET + 1)]
    for ell in range(1, LP_SIZE_BUDGET + 1):
        assert objective(ell) == [-r for r in rhos[:ell]] + rhos[:ell], ell


def plan_multipliers(plan):
    """The plan's cells as multipliers f / (ij) on the pair rows of LP(ell);
    a cell with i or j = 0 names no row and keeps f, unscaled."""
    return [(("pair", i, j, 1), Fraction(f, i * j or 1)) for i, j, f in plan]


@st.composite
def dual_plans(draw):
    """(ell, plan): gamma(ell)'s plan, which is dual feasible with every row
    and column sum exactly phi, sometimes with one unit moved to another
    cell, one flow made negative, or a unit swapped between two cells
    (i, j), (i', j') and (i, j'), (i', j), which keeps every sum and may
    leave the band; or random cells in and off the band, a few with an
    index past 1..ell."""
    ell = draw(st.integers(1, 10))
    if draw(st.booleans()):
        plan = list(gamma(ell).witness_dual)
        edit = draw(st.sampled_from(["none", "move", "negate", "swap"]))
        k, k2 = (draw(st.integers(0, len(plan) - 1)) for _ in range(2))
        i, j, f = plan[k]
        if edit == "move":
            plan[k] = (i, j, f - 1)
            plan.append((draw(st.integers(1, ell)), draw(st.integers(1, ell)), 1))
        elif edit == "negate":
            plan[k] = (i, j, -draw(st.integers(1, 3)))
        elif edit == "swap":
            i2, j2, f2 = plan[k2]
            plan[k], plan[k2] = (i, j, f - 1), (i2, j2, f2 - 1)
            plan += [(i, j2, 1), (i2, j, 1)]
    else:
        cell = st.tuples(st.integers(1, ell), st.integers(1, ell), st.integers(0, 3))
        odd = st.tuples(st.integers(0, ell + 1), st.integers(0, ell + 1), st.integers(-1, 3))
        plan = draw(st.lists(cell | odd, max_size=3 * ell))
    return ell, tuple(plan)


@given(dual_plans())
@settings(max_examples=400, deadline=None)
def test_check_dual_matches_fraction_reference(case):
    # check_dual's integer row and column sums against y^T A >= c with
    # y = f / (ij) on the pair rows, accumulated in Fractions
    ell, plan = case
    want = fraction_check_dual(ell, plan_multipliers(plan))
    assert (check_dual(ell, plan) is None) == (want is None), want


def _upper_violation(ell, i0, j0):
    """sigma_i = tau_i = i except tau_j0 = j0 + delta, so i tau_j - j sigma_i
    is 0 off column j0 and i * delta on it; i0 * delta > 1 >= (i0 - 1) * delta
    makes the upper row (i0, j0) the first violated row in scan order."""
    delta = Fraction(2 * i0 + 1, 2 * i0 * i0)
    sigma = [Fraction(i) for i in range(1, ell + 1)]
    tau = list(sigma)
    tau[j0 - 1] += delta
    return sigma, tau, (i0, j0, i0 * delta)


def _lower_violation(ell, j0):
    """sigma_i = tau_i = e, so i tau_j - j sigma_i = e (i - j); with
    e (j0 - 1) > 1 >= e (j0 - 2) the lower row (1, j0) is the first violated
    row in scan order."""
    e = Fraction(2, 2 * j0 - 3)
    return [e] * ell, [e] * ell, (1, j0, e * (1 - j0))


@pytest.mark.parametrize("ell", [3, 5, 9])
def test_exact_check_covers_rows_outside_the_band(ell):
    """The northwest plan lives on the band, the upper rows with
    i + j >= ell + 1.  These points break first a row off the band: an
    upper row with i + j <= ell or a lower row.  The band rows implied by it
    (test_band_rows_imply_every_row) break too, later in the scan, so a
    check over the band alone would name another row or none."""
    cases = [_upper_violation(ell, i, j) for i in range(1, ell) for j in range(1, ell + 1 - i)]
    cases += [_lower_violation(ell, j) for j in range(2, ell + 1)]
    dual = gamma(ell).witness_dual
    for sigma, tau, (i, j, v) in cases:
        want = f"|{i} tau_{j} - {j} sigma_{i}| = |{v}| > 1"
        assert check_primal(ell, sigma, tau) == want
        forged = GammaValue(
            ell=ell,
            gamma=primal_objective(ell, sigma, tau),
            witness_primal=(tuple(sigma), tuple(tau)),
            witness_dual=dual,
            method="northwest",
        )
        with pytest.raises(VerificationError, match=re.escape(want)):
            verify_gamma(forged)


def test_band_rows_imply_every_row():
    """The exact simplex maximises each pair row of LP(ell) over the links
    and the band rows alone and never gets past 1: the band relaxation whose
    dual _solve_northwest solves has the same feasible set as LP(ell)."""

    def band_key(ell, r):
        # the ell link rows, then the pairs (i, j, +1) with i + j >= ell + 1
        # by i and then j: each i owns the i pairs j = ell + 1 - i .. ell,
        # from pair p = i (i - 1) / 2 on
        if r < ell:
            return ("link", r + 1)
        p = r - ell
        i = (1 + isqrt(8 * p + 1)) // 2
        return ("pair", i, ell + 1 - i + p - i * (i - 1) // 2, 1)

    for ell in range(1, 7):
        n = 2 * ell
        band = [band_key(ell, r) for r in range(ell + ell * (ell + 1) // 2)]
        assert sorted(band[ell:]) == [
            ("pair", i, j, 1) for i in range(1, ell + 1) for j in range(1, ell + 1)
            if i + j >= ell + 1
        ]
        rows = [row_entries(ell, key) for key in band]
        dense = [[entries.get(idx, 0) for idx in range(n)] for entries, _ in rows]
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                for sign in (1, -1):
                    entries, _ = row_entries(ell, ("pair", i, j, sign))
                    c = [entries.get(idx, 0) for idx in range(n)]
                    best = solve_max(c, dense, [b for _, b in rows]).objective
                    assert best <= 1, (ell, i, j, sign)


def test_every_gamma_value_self_verifies():
    for ell in range(1, 13):
        verify_gamma(gamma(ell))


def test_tampered_gamma_rejected():
    gv = gamma(6)
    forged = GammaValue(
        ell=gv.ell,
        gamma=gv.gamma + Fraction(1, 1000),
        witness_primal=gv.witness_primal,
        witness_dual=gv.witness_dual,
        method=gv.method,
    )
    with pytest.raises(VerificationError):
        verify_gamma(forged)


def _halved(gv: GammaValue) -> GammaValue:
    """Half the primal point, and half of every flow: the halved plan has
    half the value, as a halved primal point would need to look optimal,
    and its flows are Fractions, not flows of integer units."""
    sigma, tau = gv.witness_primal
    return GammaValue(
        ell=gv.ell,
        gamma=gv.gamma / 2,
        witness_primal=(tuple(v / 2 for v in sigma), tuple(v / 2 for v in tau)),
        witness_dual=tuple((i, j, Fraction(f, 2)) for i, j, f in gv.witness_dual),
        method=gv.method,
    )


@pytest.mark.parametrize("ell", [5, 12])
def test_halved_gamma_forgery_rejected(ell):
    forged = _halved(gamma(ell))
    assert forged.gamma < gamma(ell).gamma
    with pytest.raises(VerificationError, match=r"dual witness rejected: not a cell"):
        verify_gamma(forged)


@pytest.mark.parametrize(
    "key",
    [
        (0, 4, 1),
        (4, 0, 1),
        (5, 1, 1),
        (1, 5, 1),
        (-1, 4, 1),
        (2, 3, -1),
        (4, 1, -1),
        (True, 4, 1),
        (1, 4, True),
        (1.0, 4, 1),
        (1, 4, 0.5),
        (Fraction(1), 4, 1),
        (1, 4, Fraction(1, 2)),
        (1, 4),
        [1, 4, 1],
        7,
        (1, 4, 1, 1),
        (),
    ],
)
def test_check_dual_rejects_malformed_keys(key):
    # a cell (i, j, f) keys the row i tau_j - j sigma_i <= 1 of LP(4); one
    # that is not three plain ints with 1 <= i, j <= 4 and f >= 0 is
    # rejected, even with zero or negative flow
    gv = gamma(4)
    assert check_dual(4, gv.witness_dual) is None
    problem = check_dual(4, gv.witness_dual + (key,))
    if key in ((2, 3, -1), (4, 1, -1)):
        assert problem == f"negative flow at ({key[0]}, {key[1]})"
    else:
        assert problem == f"not a cell (i, j, f) of LP(4): {key!r}"


def test_gamma_budget(monkeypatch):
    def no_solve(ell):
        raise AssertionError(f"solved ell = {ell} past the budget")

    monkeypatch.setattr(lp, "_solve_northwest", no_solve)
    with pytest.raises(BudgetError, match=f"LP size budget {LP_SIZE_BUDGET}"):
        gamma(LP_SIZE_BUDGET + 1)
    with pytest.raises(BudgetError, match=f"LP size budget {LP_SIZE_BUDGET}"):
        density_table_csv(LP_SIZE_BUDGET + 1)


def test_gamma_monotone_nonincreasing_is_false():
    # gamma is NOT monotone: it dips at 4 and recovers at 5
    assert gamma(5).gamma > gamma(4).gamma


def test_northwest_matches_simplex():
    # the northwest path against the exact simplex of the tests: the same
    # value, each certified by its own dual (a plan, general multipliers);
    # ell = 1..20 covers the density table test_01 pins
    for ell in (*range(1, 21), 26):
        a = solve_by_generation(ell)
        b = _solve_northwest(ell)
        assert a.gamma == b.gamma, ell
        verify_simplex_gamma(a)
        verify_gamma(b)


def test_simplex_oracle_rejects_tampered_witnesses():
    sg = solve_by_generation(6)
    (key, y), *rest = sg.multipliers
    forged = [
        SimplexGamma(sg.ell, sg.gamma + Fraction(1, 1000), sg.witness_primal, sg.multipliers),
        SimplexGamma(sg.ell, sg.gamma, sg.witness_primal, (*rest, (key, y / 2))),
        SimplexGamma(sg.ell, sg.gamma, sg.witness_primal, (*rest, (key, -y))),
    ]
    for bad in forged:
        with pytest.raises(VerificationError, match=r"^simplex gamma\(6\): "):
            verify_simplex_gamma(bad)


def test_plan_is_a_dual_certificate():
    # the sparse rule (check_dual) and the dense byte-packed one
    # (DualCertificate.verify) accept the same plan, at the same value
    for ell in range(1, 61):
        gv = gamma(ell)
        matrix = [[0] * ell for _ in range(ell)]
        for i, j, f in gv.witness_dual:
            matrix[i - 1][j - 1] += f
        cert = DualCertificate(ell=ell, matrix=tuple(map(bytes, matrix)))
        cert.verify()
        assert cert.value == gv.gamma, ell


def dense_message(ell, plan) -> str | None:
    """DualCertificate.verify's verdict on the plan's cells added into a
    matrix of bytes rows (every flow here fits in a byte)."""
    rows = [bytearray(ell) for _ in range(ell)]
    for i, j, f in plan:
        rows[i - 1][j - 1] += f
    return verify_message(ell, tuple(map(bytes, rows)))


def test_sparse_and_dense_checks_agree():
    # check_dual and DualCertificate.verify share one rule, so they must
    # give the same message on every plan: gamma's, and for each cell with
    # flow, the plan with that flow lowered by 1, with one unit moved to the
    # next cell of the walk, and with one unit moved to the mirrored cell
    seen = set()
    for ell in range(1, 61):
        plan = list(gamma(ell).witness_dual)
        assert check_dual(ell, plan) is None and dense_message(ell, plan) is None
        for a, (i, j, f) in enumerate(plan):
            if not f:
                continue
            lowered = plan[:a] + [(i, j, f - 1)] + plan[a + 1:]
            assert check_dual(ell, lowered) is not None, (ell, a)
            i2, j2, _ = plan[(a + 1) % len(plan)]
            moved = [*lowered, (i2, j2, 1)]
            mirrored = [*lowered, (j, i, 1)]
            for mutant in (lowered, moved, mirrored):
                message = check_dual(ell, mutant)
                assert dense_message(ell, mutant) == message, (ell, mutant)
                seen.add(message.split()[0] if message else None)
    assert seen == {"row", "column", None}


# sha256 of "\n".join(str(gamma(ell).gamma) for ell = 1..256), computed with
# the earlier HiGHS-guided solver with exact elimination
BUDGET_GAMMA_SHA256 = "d4d52caac24d75b5da72452721e2b1dbc27041ef5b6f596c137b3ff52384a61d"


def test_northwest_over_the_budget():
    # every ell the budget allows: one plan of 2 ell - 1 cells, all in the
    # band, a verified pair, and the whole value set unchanged
    lp._solve_northwest.cache_clear()
    values = []
    for ell in range(1, LP_SIZE_BUDGET + 1):
        cells = lp._northwest_plan(ell)
        assert len(cells) == 2 * ell - 1, ell
        assert all(i + j >= ell + 1 for i, j, _ in cells), ell
        gv = gamma(ell)
        assert gv.method == "northwest", ell
        verify_gamma(gv)
        assert gv.gamma <= gamma_upper_bound(ell), ell
        values.append(str(gv.gamma))
    digest = hashlib.sha256("\n".join(values).encode("utf-8")).hexdigest()
    assert digest == BUDGET_GAMMA_SHA256


@pytest.mark.parametrize("ell", [4, 9])
def test_unverified_northwest_candidate_raises(monkeypatch, ell):
    # every plan mutant fails verify_gamma, whose message reaches the
    # caller unchanged (test_cli pins the ell = 4 messages), and gamma
    # memoizes nothing
    lp._solve_northwest.cache_clear()
    message = rf"^gamma\({ell}\): (primal|dual) witness"
    for mutant in PLAN_MUTANTS:
        with monkeypatch.context() as m:
            patch_plan(m, mutant)
            with pytest.raises(VerificationError, match=message):
                _solve_northwest(ell)
            with pytest.raises(VerificationError, match=message):
                gamma(ell)
    assert lp._solve_northwest.cache_info().currsize == 0


def test_northwest_duality_gap_reaches_caller(monkeypatch):
    # a primal value off by 1/100 passes every check but the last
    real = lp.primal_objective
    monkeypatch.setattr(lp, "primal_objective", lambda *args: real(*args) + Fraction(1, 100))
    lp._solve_northwest.cache_clear()
    with pytest.raises(VerificationError, match=r"^gamma\(4\): duality gap$"):
        gamma(4)
    assert lp._solve_northwest.cache_info().currsize == 0


def test_plan_outside_the_band_raises(monkeypatch):
    # a walk that would ship on a cell with i + j <= ell stops there
    monkeypatch.setattr(numtheory, "totients", lambda n: [0, 2, 1, 1])
    with pytest.raises(VerificationError,
                       match=re.escape("gamma(3): northwest cell (1, 2) is outside the band")):
        lp._northwest_plan(3)


@pytest.mark.parametrize("ell", [5, 40])
def test_northwest_solve_writes_nothing(capfd, ell):
    """Anything a solve wrote to fds 1 or 2 would corrupt --json output; a
    cold solve must leave them untouched."""
    lp._solve_northwest.cache_clear()
    capfd.readouterr()
    gamma(ell)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "entry", [gamma, dual_matrix, perturbed_dual_matrix, gamma_upper_bound, density_table_csv],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("bad", [5.0, True, "5", None], ids=repr)
def test_ell_must_be_an_integer(entry, bad):
    want = f"{entry.__name__} needs an integer ell, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(want)):
        entry(bad)


@pytest.mark.parametrize(
    "entry", [gamma, dual_matrix, gamma_upper_bound, density_table_csv],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("bad", [0, -3])
def test_ell_must_be_positive(entry, bad):
    with pytest.raises(ValueError, match=re.escape(f"{entry.__name__} needs ell")):
        entry(bad)


def test_ell_accepts_numpy_integers():
    import numpy as np

    assert gamma(np.int64(5)) is gamma(5)
    cert = dual_matrix(np.int32(6))
    assert cert.ell == 6 and type(cert.ell) is int
    assert perturbed_dual_matrix(np.int64(7)).value == Fraction(629, 630)
    assert gamma_upper_bound(np.int16(7)) == Fraction(629, 630)


def test_dual_matrix_row_and_column_sums():
    for ell in (1, 2, 3, 7, 20, 45):
        cert = dual_matrix(ell)
        assert cert.value == 1
        for i in range(1, ell + 1):
            assert sum(cert.matrix[i - 1]) == numtheory.totient(i)
        for j in range(1, ell + 1):
            col = sum(cert.matrix[i - 1][j - 1] for i in range(1, ell + 1))
            assert col == numtheory.totient(j)


def test_perturbed_matrix_value():
    assert perturbed_dual_matrix(7).value == Fraction(629, 630)
    for ell in (4, 5, 10, 33):
        cert = perturbed_dual_matrix(ell)
        want = 1 - 2 * (Fraction(1, ell - 2) - Fraction(1, ell - 1)) * (
            Fraction(1, ell - 1) - Fraction(1, ell)
        )
        assert cert.value == want
        assert cert.value < 1


def fraction_value(matrix) -> Fraction:
    """Oracle for DualCertificate.value: the plain Fraction sum of a / (i j)."""
    return sum(
        (
            Fraction(a, i * j)
            for i, row in enumerate(matrix, start=1)
            for j, a in enumerate(row, start=1)
        ),
        Fraction(0),
    )


@st.composite
def almost_01_rows(draw, ell):
    """A bytes row of 0s and 1s with one entry replaced by 2 or 255."""
    row = bytearray(draw(st.lists(st.integers(0, 1), min_size=ell, max_size=ell)))
    row[draw(st.integers(0, ell - 1))] = draw(st.sampled_from([2, 255]))
    return bytes(row)


@st.composite
def certificate_matrices(draw):
    # value adds scales on rows of 0s and 1s and multiplies on every other
    # row, so draw both kinds and rows one entry away from 0/1, all bytes
    # as verify() accepts them
    ell = draw(st.integers(1, 12))
    zero_row = st.just(bytes(ell))
    row = st.binary(min_size=ell, max_size=ell)
    bits = st.lists(st.integers(0, 1), min_size=ell, max_size=ell).map(bytes)
    rows = zero_row | row | bits | almost_01_rows(ell)
    return ell, tuple(draw(st.lists(rows, min_size=ell, max_size=ell)))


@given(certificate_matrices())
@settings(max_examples=300, deadline=None)
def test_certificate_value_matches_fraction_sum(case):
    ell, matrix = case
    assert DualCertificate(ell=ell, matrix=matrix).value == fraction_value(matrix)


def test_certificate_value_is_computed_once(monkeypatch):
    cert = perturbed_dual_matrix(9)
    calls = []

    def counting_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(lp, "lcm", counting_lcm)
    fresh = DualCertificate(ell=9, matrix=cert.matrix)
    first = fresh.value
    assert fresh.value is first and fresh.value is fresh.value
    assert len(calls) == 1
    assert cert.value == first == gamma_upper_bound(9)  # read in the constructor
    assert len(calls) == 1
    # the kept value is outside ==, hash and repr
    unread = DualCertificate(ell=9, matrix=cert.matrix)
    assert fresh == unread and hash(fresh) == hash(unread)
    assert repr(fresh) == repr(unread)


def test_verify_rechecks_after_value_is_read():
    rows = [bytearray(row) for row in dual_matrix(6).matrix]
    rows[0][0] += 1
    cert = DualCertificate(ell=6, matrix=tuple(map(bytes, rows)))
    assert cert.value == fraction_value(cert.matrix)
    for _ in range(2):
        with pytest.raises(VerificationError, match=r"^row 1 sum exceeds phi\(1\)$"):
            cert.verify()


def test_certificate_matrix_values_match_fraction_sum():
    for ell in range(1, 61):
        cert = dual_matrix(ell)
        assert cert.value == fraction_value(cert.matrix) == 1, ell
        if ell >= 4:
            cert = perturbed_dual_matrix(ell)
            assert cert.value == fraction_value(cert.matrix), ell


def gcd_rows(ell: int) -> tuple[tuple[int, ...], ...]:
    """Oracle for _dual_rows: one gcd per entry of each row's window."""
    return tuple(
        (0,) * (ell - i)
        + tuple(1 if gcd(i, j) == 1 else 0 for j in range(ell + 1 - i, ell + 1))
        for i in range(1, ell + 1)
    )


def test_dual_rows_match_gcd_oracle():
    # rows are bytes, the oracle's are tuples: compared entry by entry
    for ell in range(1, LP_SIZE_BUDGET + 1):
        assert tuple(map(tuple, _dual_rows(ell))) == gcd_rows(ell), ell


def test_dual_rows_from_shared_masks_match_gcd_oracle():
    # every kept mask is already built by the largest ell; the smaller ell
    # read the same masks at other rotations, a larger one builds its own
    _dual_rows(LP_SIZE_BUDGET)
    for ell in [LP_SIZE_BUDGET + 44, *range(LP_SIZE_BUDGET, 0, -1)]:
        assert tuple(map(tuple, _dual_rows(ell))) == gcd_rows(ell), ell


def test_certificate_rows_are_bytes():
    # one byte per entry, read by verify() without a conversion; a tuple row
    # would still verify, only slower and eight times larger
    for ell in range(1, LP_SIZE_BUDGET + 1):
        assert all(type(row) is bytes for row in dual_matrix(ell).matrix), ell
        if ell >= 4:
            rows = perturbed_dual_matrix(ell).matrix
            assert all(type(row) is bytes for row in rows), ell


def test_gamma_upper_bound_matches_perturbed_formula():
    for ell in range(1, 4):
        assert gamma_upper_bound(ell) == 1
    for ell in range(4, 2001):
        want = 1 - 2 * (Fraction(1, ell - 2) - Fraction(1, ell - 1)) * (
            Fraction(1, ell - 1) - Fraction(1, ell)
        )
        assert gamma_upper_bound(ell) == want, ell


def _rejection(ell: int, edit) -> str:
    rows = [bytearray(row) for row in dual_matrix(ell).matrix]
    edit(rows)
    cert = DualCertificate(ell=ell, matrix=tuple(map(bytes, rows)))
    with pytest.raises(VerificationError) as exc:
        cert.verify()
    return str(exc.value)


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, 0, 0), (0, 1), (1, 1, 1)),  # ragged
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)),  # 3 rows of 4
        ((1, 0, 0), (0, 1, 0)),  # 2 rows of 3
    ],
)
def test_certificate_rejects_wrong_shape(matrix):
    with pytest.raises(VerificationError) as exc:
        DualCertificate(ell=3, matrix=matrix).verify()
    assert str(exc.value) == "certificate matrix is not 3 x 3"


# Every certificate the constructors build sits inside its bounds, so a
# loosened or dropped check passes every positive test.  A sum one past phi
# in each row and one short of it in each column pins each bound at each
# index (a phi table off by one index fails these too).
@pytest.mark.parametrize("ell", [12, 30])
def test_certificate_rejects_row_sum_above_phi(ell):
    for i in range(1, ell + 1):
        def edit(rows):
            rows[i - 1][0] += 1

        assert _rejection(ell, edit) == f"row {i} sum exceeds phi({i})", i


@pytest.mark.parametrize("ell", [12, 30])
def test_certificate_rejects_column_sum_below_phi(ell):
    for j in range(1, ell + 1):
        def edit(rows):
            i = next(i for i in range(ell) if rows[i][j - 1] == 1)
            rows[i][j - 1] = 0

        assert _rejection(ell, edit) == f"column {j} sum below phi({j})", j


def plain_verify(ell, matrix, phi) -> str | None:
    """Oracle for DualCertificate.verify: the type check, then the sum and
    zip loops, with the phi table passed in.  Returns the failure message,
    or None."""
    if len(matrix) != ell or any(len(r) != ell for r in matrix):
        return f"certificate matrix is not {ell} x {ell}"
    for i, row in enumerate(matrix, start=1):
        if type(row) is not bytes:
            return f"row {i} is not bytes"
    for i, row in enumerate(matrix, start=1):
        if sum(row) > phi[i]:
            return f"row {i} sum exceeds phi({i})"
    for j, col in enumerate(zip(*matrix), start=1):
        if sum(col) < phi[j]:
            return f"column {j} sum below phi({j})"
    return None


def verify_message(ell, matrix) -> str | None:
    try:
        DualCertificate(ell=ell, matrix=matrix).verify()
    except VerificationError as exc:
        return str(exc)
    return None


# rows with the entries of a bytes row that are not bytes; a bytearray and
# an array("B") hold the same raw memory, so a packing that read any buffer
# would take them
NOT_BYTES = {
    "tuple": tuple,
    "list": list,
    "bytearray": bytearray,
    "array B": lambda row: array("B", list(row)),
    "array h": lambda row: array("h", list(row)),
}


@st.composite
def odd_rows(draw, rows):
    """Three times in four the rows as bytes, unedited, so that many whole
    matrices pass; else edit entries within 0..255, then maybe change the
    shape or turn one row into a kind that is not bytes.  The other rows
    are bytes, as the certificate constructors build them."""
    if draw(st.integers(0, 3)):
        return tuple(map(bytes, rows))
    rows = [bytearray(row) for row in rows]
    ell = len(rows)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, ell - 1)), draw(st.integers(0, ell - 1))
        rows[i][j] = draw(st.integers(0, 255))
    kinds = ["as is", *NOT_BYTES, "short row", "long row", "extra row", "no row"]
    kind = draw(st.sampled_from(kinds[:1] * 6 + kinds[1:]))  # mostly rows as drawn
    i = draw(st.integers(0, ell - 1))
    if kind == "short row":
        rows[i].pop()
    elif kind == "long row":
        rows[i].append(0)
    elif kind == "extra row":
        rows.insert(i, bytearray(ell))
    elif kind == "no row":
        del rows[i]
    out = list(map(bytes, rows))
    if kind in NOT_BYTES:
        out[i] = NOT_BYTES[kind](out[i])
    return tuple(out)


@st.composite
def drawn_phi_cases(draw):
    """A small matrix of bytes-sized entries, so columns run past 255 and
    carry (the last one past lane ell), with a phi table drawn from its row
    sums r_i and column sums c_i: r_i <= phi(i) <= c_i wherever that holds,
    so whole matrices pass, and now and then one phi(i) one past a bound.
    The r_i add up to the c_i, so a whole matrix passes only if r_i = c_i
    for every i: three times in four the matrix is drawn symmetric."""
    ell = draw(st.integers(1, 8))
    big = st.integers(0, 255) | st.sampled_from([0, 1, 128, 255])
    rows = draw(st.lists(st.tuples(*[big] * ell), min_size=ell, max_size=ell))
    if draw(st.integers(0, 3)):
        rows = [tuple(rows[min(i, j)][max(i, j)] for j in range(ell)) for i in range(ell)]
    rows = draw(odd_rows(rows))
    r = [sum(rows[i]) if i < len(rows) else 0 for i in range(ell)]
    c = [sum(row[i] for row in rows if i < len(row)) for i in range(ell)]
    phi = [0] + [draw(st.integers(r[i], max(r[i], c[i]))) for i in range(ell)]
    if not draw(st.integers(0, 5)):
        i = draw(st.integers(0, ell - 1))
        phi[i + 1] = draw(st.sampled_from([r[i] - 1, c[i] + 1]))
    return ell, rows, phi


@st.composite
def real_phi_cases(draw):
    """dual_matrix or perturbed_dual_matrix rows, or rows that put all of
    phi(i) into one of a few columns (at ell >= 29 those carry), maybe
    edited."""
    ell = draw(st.integers(1, 40))
    phi = numtheory.totients(ell)
    base = draw(st.sampled_from(["dual", "perturbed", "hot"]))
    if base == "hot":
        hot = draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=3))
        rows = []
        for i in range(1, ell + 1):
            row = [0] * ell
            row[draw(st.sampled_from(hot))] = phi[i]
            rows.append(bytes(row))
    elif base == "perturbed" and ell >= 4:
        rows = perturbed_dual_matrix(ell).matrix
    else:
        rows = dual_matrix(ell).matrix
    return ell, draw(odd_rows(rows)), phi


@given(drawn_phi_cases() | real_phi_cases())
@settings(max_examples=600, deadline=None)
def test_verify_matches_plain_loop(case):
    ell, matrix, phi = case
    with mock.patch.object(numtheory, "totients", lambda n: list(phi)):
        assert verify_message(ell, matrix) == plain_verify(ell, matrix, phi)


def test_verify_finds_the_column_under_a_carry():
    # column 1 collects sum phi(1..30) = 278 = 256 + 22: read without the
    # digit-sum guard, its carry fills column 2's lane and column 3 is blamed
    phi = numtheory.totients(30)
    rows = tuple(bytes((phi[i],) + (0,) * 29) for i in range(1, 31))
    assert sum(phi) == 278
    assert verify_message(30, rows) == plain_verify(30, rows, phi) == "column 2 sum below phi(2)"


@pytest.mark.parametrize("ell", [257, 300])
def test_verify_past_the_lanes(ell):
    # phi(257) = 256: from here on column sums carry, and the last one
    # carries past lane ell
    rows = [bytearray(row) for row in _dual_rows(ell)]
    assert verify_message(ell, tuple(map(bytes, rows))) is None
    rows[-2][-1] = 0  # (ell - 1, ell) is coprime, so column ell loses one
    message = f"column {ell} sum below phi({ell})"
    assert verify_message(ell, tuple(map(bytes, rows))) == message


@pytest.mark.parametrize(
    "convert",
    [
        tuple,
        list,
        bytearray,
        lambda row: array("b", list(row)),
        lambda row: array("h", list(row)),
    ],
    ids=["tuple", "list", "bytearray", "array-b", "array-h"],
)
def test_verify_rejects_rows_that_are_not_bytes(convert):
    # a row holding the right entries is rejected for its type alone; only
    # such a row could hold a negative entry
    for i in (1, 21, 30):
        rows = list(dual_matrix(30).matrix)
        rows[i - 1] = convert(rows[i - 1])
        with pytest.raises(VerificationError, match=rf"^row {i} is not bytes$"):
            DualCertificate(ell=30, matrix=tuple(rows)).verify()


@pytest.mark.parametrize(
    "convert",
    [lambda row: tuple(map(Fraction, row)), lambda row: tuple(map(float, row))],
    ids=["fraction", "float"],
)
def test_verify_reads_rows_bytes_cannot(convert):
    # entries bytes() cannot hold are refused by the row's type, whether they
    # are valid or one of them is negative
    rows = list(dual_matrix(30).matrix)
    rows[20] = convert(rows[20])
    assert verify_message(30, tuple(rows)) == "row 21 is not bytes"
    row = [*dual_matrix(30).matrix[20]]
    row[0], row[29] = -1, row[29] + 1
    rows[20] = convert(row)
    assert verify_message(30, tuple(rows)) == "row 21 is not bytes"


def test_certified_dual_returns_the_checked_value():
    for ell in (1, 4, 7, 40):
        cert = lp._certified_dual(ell, perturbed=False)
        assert cert == dual_matrix(ell) and cert._value == 1  # kept from the check
        if ell >= 4:
            cert = lp._certified_dual(ell, perturbed=True)
            assert cert == perturbed_dual_matrix(ell)
            assert cert._value == gamma_upper_bound(ell)


def test_perturbed_needs_four():
    with pytest.raises(ValueError):
        perturbed_dual_matrix(3)


def test_certificate_dominates_gamma():
    for ell in range(1, 13):
        assert gamma(ell).gamma <= gamma_upper_bound(ell)


def test_format_round4():
    assert format_round4(Fraction(1)) == "1.0000"
    assert format_round4(Fraction(35, 36)) == "0.9722"
    assert format_round4(Fraction(1, 3)) == "0.3333"
    assert format_round4(Fraction(2, 3)) == "0.6667"
    assert format_round4(Fraction(12345, 100000)) == "0.1235"  # half away from zero
    assert format_round4(Fraction(-1, 20000)) == "-0.0001"
    assert format_round4(Fraction(0)) == "0.0000"
