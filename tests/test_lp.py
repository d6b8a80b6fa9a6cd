"""gamma(ell): exact solves, witnesses, certificates, cache."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusk import lp, numtheory
from torusk.errors import BudgetError, CacheError, VerificationError
from torusk.lp import (
    DualCertificate,
    GammaValue,
    LP_SIZE_BUDGET,
    LpDualWitness,
    _solve_by_generation,
    _solve_guided,
    check_dual,
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
    """Half the primal point, and pair rows scaled by 2 with half the
    multiplier: the doubled rows are not rows of LP(ell), and they make the
    halved value look optimal."""
    sigma, tau = gv.witness_primal
    multipliers = tuple(
        (("pair", key[1], key[2], 2 * key[3]), y / 2) if key[0] == "pair" else (key, y)
        for key, y in gv.witness_dual.multipliers
    )
    g = gv.gamma / 2
    return GammaValue(
        ell=gv.ell,
        gamma=g,
        witness_primal=(tuple(v / 2 for v in sigma), tuple(v / 2 for v in tau)),
        witness_dual=LpDualWitness(ell=gv.ell, multipliers=multipliers, value=g),
        method=gv.method,
    )


@pytest.mark.parametrize("ell", [5, 12])
def test_halved_gamma_forgery_rejected(ell):
    forged = _halved(gamma(ell))
    assert forged.gamma < gamma(ell).gamma
    with pytest.raises(VerificationError, match="not a row"):
        verify_gamma(forged)


@pytest.mark.parametrize(
    "key",
    [
        ("zzz", 1, 1, 1),
        ("pair", -3, 1, -1),
        ("pair", 0, 9, 1),
        ("pair", 1, 5, 1),
        ("pair", 1, 1, 2),
        ("pair", 1, 1, 0),
        ("pair", 1, 1, True),
        ("pair", 1.0, 1, 1),
        ("pair", 1, 1),
        ("link", 0),
        ("link", 5),
        ("link", -1),
        ("link", 1, 1),
        ("link", "1"),
        (),
        7,
    ],
)
def test_check_dual_rejects_malformed_keys(key):
    gv = gamma(4)
    assert check_dual(4, gv.witness_dual) is None
    witness = LpDualWitness(
        ell=4, multipliers=gv.witness_dual.multipliers + ((key, Fraction(0)),), value=gv.gamma
    )
    assert "not a row" in check_dual(4, witness)


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
def certificate_matrices(draw):
    ell = draw(st.integers(1, 12))
    zero_row = st.just((0,) * ell)
    row = st.tuples(*[st.integers(0, 1000)] * ell)
    return ell, tuple(draw(st.lists(zero_row | row, min_size=ell, max_size=ell)))


@given(certificate_matrices())
@settings(max_examples=300, deadline=None)
def test_certificate_value_matches_fraction_sum(case):
    ell, matrix = case
    assert DualCertificate(ell=ell, matrix=matrix).value == fraction_value(matrix)


def test_certificate_matrix_values_match_fraction_sum():
    for ell in range(1, 61):
        cert = dual_matrix(ell)
        assert cert.value == fraction_value(cert.matrix) == 1, ell
        if ell >= 4:
            cert = perturbed_dual_matrix(ell)
            assert cert.value == fraction_value(cert.matrix), ell


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
    loaded = load_gamma_cache(path)
    assert loaded == values
    assert [p.name for p in tmp_path.iterdir()] == ["gamma.txt"]


def test_cache_corruption_detected(tmp_path):
    values = {ell: gamma(ell) for ell in (4, 5)}
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, values)
    text = path.read_text()
    path.write_text(text.replace("35/36", "34/36"))
    with pytest.raises(CacheError):
        load_gamma_cache(path)


def test_cache_bad_header(tmp_path):
    path = tmp_path / "gamma.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheError):
        load_gamma_cache(path)
    path.write_text("torusk-gamma 1\n4 35/36\nsha256 0\n")  # the older format
    with pytest.raises(CacheError, match="header"):
        load_gamma_cache(path)


def resign(path, edit) -> None:
    """Apply edit to the parsed records and rewrite the file with a
    matching checksum, as a deliberate forger would."""
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:-1]]
    edit(records)
    body = [lines[0]] + [json.dumps(rec) for rec in records]
    path.write_text("\n".join(body + [f"sha256 {lp._checksum(body)}"]) + "\n")


def _set(field, value):
    def edit(records):
        records[0][field] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda records: records.append(records[0]),  # repeated ell
        lambda records: records[0].pop("method"),
        _set("method", "auto"),
        _set("ell", 0),
        _set("sigma", [None]),
        _set("gamma", "1/0"),
        _set("dual", [[7, "1"]]),
        _set("dual", [["pair", 1, 1]]),
        lambda records: records.__setitem__(0, [4]),
    ],
)
def test_cache_malformed_record(tmp_path, edit):
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, {ell: gamma(ell) for ell in (4, 5)})
    resign(path, edit)
    with pytest.raises(CacheError):
        load_gamma_cache(path)


@pytest.mark.parametrize(
    "edit",
    [
        _set("gamma", "17/18"),
        _set("dual", [[["pair", 0, 9, 1], "1"]]),
        _set("dual", [[["pair", -3, 1, -1], "1"]]),
    ],
)
def test_cache_resigned_forgery_fails_verification(tmp_path, edit):
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, {4: gamma(4)})
    resign(path, edit)
    with pytest.raises(VerificationError):
        load_gamma_cache(path)


def test_cache_resigned_halved_gamma_rejected(tmp_path):
    path = tmp_path / "gamma.txt"
    save_gamma_cache(path, {5: _halved(gamma(5))})  # saving does not verify
    with pytest.raises(VerificationError, match="not a row"):
        load_gamma_cache(path)


def test_format_round4():
    assert format_round4(Fraction(1)) == "1.0000"
    assert format_round4(Fraction(35, 36)) == "0.9722"
    assert format_round4(Fraction(1, 3)) == "0.3333"
    assert format_round4(Fraction(2, 3)) == "0.6667"
    assert format_round4(Fraction(12345, 100000)) == "0.1235"  # half away from zero
    assert format_round4(Fraction(-1, 20000)) == "-0.0001"
    assert format_round4(Fraction(0)) == "0.0000"
