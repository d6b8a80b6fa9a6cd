"""gamma(ell): exact solves, witnesses, certificates, cache."""

from fractions import Fraction

import pytest

from torusk import lp, numtheory
from torusk.errors import BudgetError, CacheError, VerificationError
from torusk.lp import (
    GammaValue,
    LP_SIZE_BUDGET,
    _solve_by_generation,
    _solve_guided,
    check_primal,
    dual_matrix,
    format_round4,
    gamma,
    gamma_upper_bound,
    load_gamma_cache,
    perturbed_dual_matrix,
    primal_objective,
    primal_witness_small,
    save_gamma_cache,
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
    for ell, want in ROUNDED.items():
        assert format_round4(gamma(ell, method="simplex").gamma) == want


def test_gamma_is_one_up_to_three():
    for ell in (1, 2, 3):
        assert gamma(ell).gamma == 1


def test_small_witnesses_feasible_and_optimal():
    for ell in (1, 2, 3):
        sigma, tau = primal_witness_small(ell)
        assert check_primal(ell, sigma, tau) is None
        assert primal_objective(ell, sigma, tau) == 1


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


def test_gamma_budget():
    with pytest.raises(BudgetError):
        gamma(LP_SIZE_BUDGET + 1)


def test_gamma_monotone_nonincreasing_is_false():
    # gamma is NOT monotone: it dips at 4 and recovers at 5
    assert gamma(5).gamma > gamma(4).gamma


def test_guided_matches_simplex():
    for ell in (*range(1, 13), 26):
        a = _solve_by_generation(ell)
        b = _solve_guided(ell)
        assert b is not None, ell
        assert a.gamma == b.gamma, ell
        verify_gamma(a)
        verify_gamma(b)


def test_guided_never_falls_back(monkeypatch):
    monkeypatch.setattr(lp, "_gamma_memo", {})  # earlier simplex requests fill it
    for ell in range(1, 61):
        assert gamma(ell).method == "guided", ell


def test_simplex_request_keeps_guided_memo(monkeypatch):
    monkeypatch.setattr(lp, "_gamma_memo", {})
    guided = gamma(7)
    assert guided.method == "guided"
    oracle = gamma(7, method="simplex")
    assert oracle.method == "simplex"
    assert oracle.gamma == guided.gamma
    assert lp._gamma_memo[7] is guided
    assert gamma(7) is guided


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


def test_perturbed_needs_four():
    with pytest.raises(ValueError):
        perturbed_dual_matrix(3)


def test_certificate_dominates_gamma():
    for ell in range(1, 13):
        assert gamma(ell).gamma <= gamma_upper_bound(ell)


def test_cache_roundtrip(tmp_path):
    values = {ell: gamma(ell) for ell in range(1, 9)}
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, values)
    loaded = load_gamma_cache(path, verify=True)
    assert set(loaded) == set(values)
    for ell, gv in values.items():
        assert loaded[ell].gamma == gv.gamma


def test_cache_corruption_detected(tmp_path):
    values = {ell: gamma(ell) for ell in (4, 5)}
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, values)
    text = path.read_text()
    path.write_text(text.replace("35/36", "34/36"))
    with pytest.raises(CacheError):
        load_gamma_cache(path, verify=True)


def test_cache_bad_header(tmp_path):
    path = tmp_path / "gamma.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheError):
        load_gamma_cache(path)


def test_format_round4():
    assert format_round4(Fraction(1)) == "1.0000"
    assert format_round4(Fraction(35, 36)) == "0.9722"
    assert format_round4(Fraction(1, 3)) == "0.3333"
    assert format_round4(Fraction(2, 3)) == "0.6667"
    assert format_round4(Fraction(12345, 100000)) == "0.1235"  # half away from zero
    assert format_round4(Fraction(-1, 20000)) == "-0.0001"
    assert format_round4(Fraction(0)) == "0.0000"
