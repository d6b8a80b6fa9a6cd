"""Acceptance suite: one test per published claim the package must reproduce.

Each test prints a single line "criterion N: <what> PASS (<elapsed>)" on
success; a failed assert is the corresponding FAIL line.  Everything is
exact arithmetic except the two floating comparisons flagged with their
tolerance.
"""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from torusk import lattice, numtheory
from torusk.bounds import check_sum210, check_threshold_3225, check_threshold_1892, size_bound
from torusk.closedform import (
    EXCEPTIONS,
    EXTREMAL_K,
    construct_extremal,
    construct_height1,
    construct_height2,
    construct_height3,
    pattern_or_table,
)
from torusk.heights import sweep, verify_height
from torusk.lp import dual_matrix, format_round4, gamma, perturbed_dual_matrix
from torusk.oracle import brute_force_max
from torusk.search import compute, max_size

# rho, alpha, gamma, beta rounded to 4 decimals, ell = 1..20
REFERENCE_DENSITY_TABLE = """\
1,1.0000,0.0000,1.0000,2.0000
2,0.5000,0.5000,1.0000,3.0000
3,0.6667,0.6667,1.0000,4.3333
4,0.5000,0.5000,0.9722,5.3333
5,0.8000,0.8000,0.9917,6.9333
6,0.3333,1.0000,0.9667,8.2667
7,0.8571,0.8571,0.9752,9.9810
8,0.5000,0.5000,0.9687,10.9810
9,0.6667,0.6667,0.9695,12.3143
10,0.4000,1.2000,0.9586,13.9143
11,0.9091,0.9091,0.9679,15.7325
12,0.3333,1.0000,0.9601,17.0658
13,0.9231,0.9231,0.9680,18.9120
14,0.4286,1.2857,0.9645,20.6262
15,0.5333,1.3333,0.9605,22.4929
16,0.5000,0.5000,0.9553,23.4929
17,0.9412,0.9412,0.9617,25.3753
18,0.3333,1.0000,0.9576,26.7086
19,0.9474,0.9474,0.9634,28.6033
20,0.4000,1.2000,0.9615,30.2033"""


def _report(n: int, what: str, t0: float) -> None:
    print(f"criterion {n}: {what} PASS ({time.time() - t0:.1f}s)")


def test_01_density_table_rounds_to_reference():
    t0 = time.time()
    for line in REFERENCE_DENSITY_TABLE.splitlines():
        raw_ell, want_rho, want_alpha, want_gamma, want_beta = line.split(",")
        ell = int(raw_ell)
        t = numtheory.triples(ell)
        assert format_round4(t.rho) == want_rho, ell
        assert format_round4(t.alpha) == want_alpha, ell
        assert format_round4(t.beta) == want_beta, ell
        g = gamma(ell, method="simplex").gamma
        assert format_round4(g) == want_gamma, ell
    _report(1, "density table ell 1..20, 4-decimal match", t0)


def _check_maxima(ks) -> None:
    for k in ks:
        out = max_size(k)
        want = pattern_or_table(k).value
        assert out.max_size == want, f"k={k}: search {out.max_size}, closed {want}"
        assert out.witness is not None and len(out.witness.points) == want, k
        assert lattice.check_k_nice(out.witness.points, k) is None, k


def test_02_exact_maxima_match_closed_form_to_200():
    t0 = time.time()
    _check_maxima(range(3, 201))
    covered = [k for k in EXCEPTIONS if 3 <= k <= 200]
    assert len(covered) == 45  # every tabulated exception in range exercised
    _report(2, "maximum sizes k = 3..200 with valid witnesses", t0)


def test_03_brute_force_agreement_tiny_k():
    t0 = time.time()
    for k in range(1, 13):
        want = pattern_or_table(k).value
        assert brute_force_max(k).max_size == want, k
        if k >= 3:
            assert max_size(k).max_size == want, k
    _report(3, "independent brute force k = 1..12", t0)


def test_04_dual_certificates_to_200():
    t0 = time.time()
    for ell in range(1, 201):
        cert = dual_matrix(ell)
        cert.verify()
        assert cert.value == 1, ell
    for ell in range(4, 201):
        cert = perturbed_dual_matrix(ell)
        cert.verify()
        want = 1 - 2 * (Fraction(1, ell - 2) - Fraction(1, ell - 1)) * (
            Fraction(1, ell - 1) - Fraction(1, ell)
        )
        assert cert.value == want, ell
        assert cert.value < 1, ell
    for ell in range(1, 81):
        bound = perturbed_dual_matrix(ell).value if ell >= 4 else Fraction(1)
        assert gamma(ell).gamma <= bound, ell
    _report(4, "dual certificate matrices ell <= 200, optima dominated", t0)


def test_05_threshold_inequality_suite():
    t0 = time.time()
    rep = check_sum210()
    assert rep.holds
    assert 210 in rep.equality_points
    assert rep.equality_points == (105, 210)  # both half-period attainments

    rep = check_threshold_1892(66)
    assert rep.holds, "1892-threshold family failed"
    rep = check_threshold_3225(120)
    assert rep.holds, "3225-threshold family failed"

    # near-tight evaluations, tolerance 5e-4 on the quoted 4-decimal values
    assert abs(float(size_bound(1891, 50)) - 1894.0362) < 5e-4
    assert abs(float(size_bound(3224, 80)) - 3227.0394) < 5e-4
    _report(5, "averaged-sum and threshold inequalities, near-tight values", t0)


def test_06_height_reduction_sweep_to_400():
    t0 = time.time()
    verdicts = sweep(2, 400)
    assert len(verdicts) == 1387
    assert all(v.verified for v in verdicts)
    assert not verify_height(3, 2).verified  # the scan is not vacuous
    _report(6, "height reduction verified k = 2..400 over the reduction range", t0)


def test_07_constructions_valid_to_500():
    t0 = time.time()
    for k in range(1, 501):
        q = construct_height1(k)
        assert len(q.points) == k + 2 and lattice.check_k_nice(q.points, k) is None
    for k in range(3, 500, 2):
        q = construct_height2(k)
        assert len(q.points) == k + 3 and lattice.check_k_nice(q.points, k) is None
    for k in range(8, 501, 6):
        q = construct_height3(k)
        assert len(q.points) == k + 4 and lattice.check_k_nice(q.points, k) is None
    for k in EXTREMAL_K:
        q = construct_extremal(k)
        assert len(q.points) == k + 6 and lattice.check_k_nice(q.points, k) is None
    _report(7, "explicit constructions k <= 500", t0)


def test_08_structural_properties():
    t0 = time.time()

    # pair measure is unimodular invariant
    mats = [
        lattice.UnimodularMatrix(1, 3, 0, 1),
        lattice.UnimodularMatrix(1, 0, -2, 1),
        lattice.UnimodularMatrix(0, 1, -1, 0),
        lattice.UnimodularMatrix(2, 3, 1, 2),
    ]
    pts = [(1, 0), (0, 1), (3, 2), (-5, 4), (7, -3)]
    for mat in mats:
        for p in pts:
            for q in pts:
                assert lattice.pair_measure(
                    mat.apply(p), mat.apply(q)
                ) == lattice.pair_measure(p, q)

    # hull area of a maximum set stays within (355/113) k / 2
    for k in range(3, 31):
        wit = max_size(k).witness
        area = lattice.hull_area(wit.points)
        assert area <= Fraction(355, 113) * k / 2, k

    # coprime counts in any window of n consecutive integers, exhaustively
    for ell in range(1, 31):
        rho, alpha = numtheory.rho(ell), numtheory.alpha(ell)
        for n in range(1, 2 * ell + 1):
            worst = max(
                sum(1 for x in range(s, s + n) if gcd(x, ell) == 1)
                for s in range(ell)
            )
            assert worst <= rho * n + alpha, (ell, n)

    # at-height search value is monotone in its baseline
    for k, h in ((24, 5), (20, 4), (30, 3)):
        floor_value = compute(k, h, 4)
        for n in range(4, floor_value + 4):
            assert compute(k, h, n) == max(floor_value, n)

    _report(8, "invariance, hull area, window counts, baseline monotonicity", t0)


@pytest.mark.slow
def test_09_exact_maxima_match_table_201_to_400():
    # opt-in (pytest -m slow): re-derives every tabulated exception above 200
    t0 = time.time()
    _check_maxima(range(201, 401))
    above = [k for k in EXCEPTIONS if k > 200]
    assert len(above) == 12 and max(above) <= 400  # every one above 200 searched
    _report(9, "maximum sizes k = 201..400 with valid witnesses", t0)
