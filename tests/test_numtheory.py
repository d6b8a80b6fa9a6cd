"""Density constants: rho, alpha, beta and the coprime counting helpers."""

import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from torusk import numtheory
from torusk.numtheory import (
    alpha,
    beta,
    coprime_count,
    prime_factors,
    rho,
    small_prime_part,
    squarefree_divisors,
    totient,
    totients,
)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(210) == [2, 3, 5, 7]
    assert prime_factors(97) == [97]


def test_totient_small():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 10: 4, 12: 4, 36: 12}
    for n, phi in expected.items():
        assert totient(n) == phi


def test_totients_match_totient():
    oracle = [0] + [totient(n) for n in range(1, 2001)]
    assert totients(0) == [0]
    for n in range(1, 2001):
        assert totients(n) == oracle[: n + 1], n
    with pytest.raises(ValueError):
        totients(-1)


def test_totients_are_fresh_lists(monkeypatch):
    # every call slices the process-wide sieve, so a caller that edits its
    # list cannot change what the next caller reads, for any n up to, at
    # or past the kept sieve
    monkeypatch.setattr(numtheory, "_phi", [0])
    oracle = [0] + [totient(n) for n in range(1, 301)]
    for n in (300, 40, 0, 300, 301):
        phi = totients(n)
        assert phi == [0] + [totient(m) for m in range(1, n + 1)]
        phi[-1] += 1
        phi.append(7)
    for n in (0, 1, 40, 300):
        assert totients(n) == oracle[: n + 1], n


def test_totients_from_racing_threads():
    # threads that outgrow the kept sieve at the same moment each get a
    # correct list, and the sieve kept afterwards covers the largest request
    # (the lock lets it only grow; a shorter sieve swapped in last would not)
    oracle = [0] + [totient(n) for n in range(1, 401)]
    wrong = []
    start = threading.Barrier(4)

    def race(sizes: list[int]) -> None:
        for n in sizes:
            start.wait(timeout=10)
            if totients(n) != oracle[: n + 1]:
                wrong.append(n)

    saved, interval = numtheory._phi, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(100):
            numtheory._phi = [0]
            workers = [
                threading.Thread(target=race, args=([400 - t - r % 3, 200 - t],))
                for t in range(4)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            assert len(numtheory._phi) > 400 - r % 3
    finally:
        sys.setswitchinterval(interval)
        numtheory._phi = saved
    assert wrong == []


def test_squarefree_divisors_moebius():
    divs = dict(squarefree_divisors(12))
    assert divs == {1: 1, 2: -1, 3: -1, 6: 1}


@given(st.integers(1, 60), st.integers(-30, 60), st.integers(0, 80))
def test_coprime_count_matches_naive(ell, lo, span):
    hi = lo + span
    naive = sum(1 for z in range(lo, hi + 1) if gcd(z, ell) == 1)
    assert coprime_count(ell, lo, hi) == naive


def test_rho_values():
    assert rho(1) == 1
    assert rho(2) == Fraction(1, 2)
    assert rho(6) == Fraction(1, 3)
    assert rho(210) == Fraction(8, 35)


def test_alpha_values():
    assert alpha(1) == 0
    assert alpha(2) == Fraction(1, 2)
    assert alpha(4) == Fraction(1, 2)
    assert alpha(6) == 1
    assert alpha(20) == Fraction(6, 5)
    assert alpha(210) == Fraction(14, 5)


def alpha_by_window_scan(ell: int) -> Fraction:
    """Oracle for alpha: every window 1 <= a <= b <= 2 ell from prefix
    counts, integer-scaled by rho = pn / pd."""
    r = rho(ell)
    pn, pd = r.numerator, r.denominator
    top = 2 * ell
    prefix = [0] * (top + 1)
    for z in range(1, top + 1):
        prefix[z] = prefix[z - 1] + (1 if gcd(z, ell) == 1 else 0)
    best = None
    for a in range(1, top + 1):
        base = prefix[a - 1]
        for b in range(a, top + 1):
            scaled = (prefix[b] - base) * pd - pn * (b - a + 1)
            if best is None or scaled > best:
                best = scaled
    return Fraction(best, pd)


def test_alpha_matches_window_scan():
    for ell in range(1, 301):
        assert alpha(ell) == alpha_by_window_scan(ell), ell


def test_beta_recurrence():
    assert beta(0) == 1
    for ell in range(1, 25):
        assert beta(ell) == beta(ell - 1) + alpha(ell) + rho(ell)
    assert beta(1) == 2
    assert beta(6) == Fraction(124, 15)


@pytest.mark.parametrize("ell", range(1, 31))
def test_interval_coprime_bound_exhaustive(ell):
    # every window of n consecutive integers holds at most rho*n + alpha
    # coprime elements; shifting over a full period is exhaustive
    r, a = rho(ell), alpha(ell)
    for start in range(0, ell):
        for n in range(1, 4 * ell + 1):
            count = coprime_count(ell, start, start + n - 1)
            assert count <= r * n + a
    # and alpha is tight: some window in [1, 2 ell] attains it
    attained = max(
        coprime_count(ell, s, t) - r * (t - s + 1)
        for s in range(1, 2 * ell + 1)
        for t in range(s, 2 * ell + 1)
    )
    assert attained == a


def test_small_prime_part():
    assert small_prime_part(1) == 1
    assert small_prime_part(4) == 2
    assert small_prime_part(12) == 6
    assert small_prime_part(11) == 1
    assert small_prime_part(210) == 210
    assert small_prime_part(121) == 1


def test_density_values_and_ranges():
    assert (rho(6), alpha(6), beta(6)) == (Fraction(1, 3), 1, Fraction(124, 15))
    for ell in range(1, 257):
        assert 0 < rho(ell) <= 1, ell
        assert alpha(ell) >= 0, ell

