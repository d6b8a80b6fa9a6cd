"""Densities of coprime residues and their window excesses.

For a modulus ell >= 1, rho(ell) is the density of integers coprime to ell
and alpha(ell) is the largest excess of an interval's coprime count over its
expected value rho * length.  Row ell of a nice set lives in an interval of
length about k/ell, so rho and alpha control how many points a row can hold;
beta accumulates the per-row excesses and appears as the constant term of
every size bound downstream.

All values are exact rationals (fractions.Fraction).  Nothing here is
floating point.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

gcd = math.gcd  # non-negative, gcd(0, 0) == 0


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    """Euler's phi: count of 1 <= z <= n coprime to n."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


_phi_lock = threading.Lock()
_phi: list[int] = [0]  # phi(0..len - 1); replaced by a longer sieve, never edited


def totients(n: int) -> list[int]:
    """[0, phi(1), ..., phi(n)] as a new list, sliced from one sieve kept
    for the process; totient is its test oracle.  A request past the kept
    sieve replaces it with one at least twice as long, so an ascending
    sweep of n sieves O(log n) times."""
    global _phi
    if n < 0:
        raise ValueError(f"totients needs n >= 0, got {n}")
    table = _phi
    if n >= len(table):
        with _phi_lock:
            if n >= len(_phi):
                top = max(n, 2 * (len(_phi) - 1))
                sieve = list(range(top + 1))
                for p in range(2, top + 1):
                    if sieve[p] == p:  # no smaller prime reduced it, so p is prime
                        for m in range(p, top + 1, p):
                            sieve[m] -= sieve[m] // p
                _phi = sieve
            table = _phi
    return table[: n + 1]


def squarefree_divisors(ell: int) -> list[tuple[int, int]]:
    """Pairs (d, mu(d)) for d ranging over divisors of rad(ell)."""
    divs = [(1, 1)]
    for p in prime_factors(ell):
        divs += [(d * p, -mu) for d, mu in divs]
    return divs


def coprime_count(ell: int, lo: int, hi: int) -> int:
    """Number of z in [lo, hi] with gcd(z, ell) = 1; 0 when the interval is empty.

    Inclusion-exclusion over squarefree divisors, so negative endpoints are
    fine (Python's // is floor division).  Note gcd(0, 1) = 1, so z = 0
    counts exactly when ell = 1.
    """
    if ell < 1:
        raise ValueError(f"coprime_count needs ell >= 1, got {ell}")
    if hi < lo:
        return 0
    return sum(mu * (hi // d - (lo - 1) // d) for d, mu in squarefree_divisors(ell))


def rho(ell: int) -> Fraction:
    """Density of integers coprime to ell: product of (1 - 1/p) over p | ell."""
    r = Fraction(1)
    for p in prime_factors(ell):
        r *= Fraction(p - 1, p)
    return r


def alpha(ell: int) -> Fraction:
    """Largest excess coprime_count(ell, a, b) - rho(ell) * (b - a + 1) over
    windows 1 <= a <= b <= 2 * ell.

    The count is ell-periodic with a full period contributing exactly
    phi(ell) = rho * ell, so longer windows never beat the ones searched
    here.  Integer-scaled with rho = pn/pd, the excess of a window is the
    sum of its terms pd * [gcd(z, ell) = 1] - pn, so one maximum-subarray
    pass finds it: cur is the best sum of a window ending at z.  A full
    period sums to exactly 0, so best starts at 0.
    """
    if ell < 1:
        raise ValueError(f"alpha needs ell >= 1, got {ell}")
    r = rho(ell)
    pn, pd = r.numerator, r.denominator
    cur = best = 0
    for z in range(1, 2 * ell + 1):
        cur = max(cur, 0) + (pd if gcd(z, ell) == 1 else 0) - pn
        best = max(best, cur)
    return Fraction(best, pd)


_beta_lock = threading.Lock()
_beta: list[Fraction] = [Fraction(1)]  # beta_0, beta_1, ..., extended in order


def beta(ell: int) -> Fraction:
    """beta_0 = 1, beta_ell = beta_{ell-1} + alpha(ell) + rho(ell).  Memoized."""
    if ell < 0:
        raise ValueError(f"beta needs ell >= 0, got {ell}")
    with _beta_lock:
        for i in range(len(_beta), ell + 1):
            _beta.append(_beta[-1] + alpha(i) + rho(i))
        return _beta[ell]


SMALL_PRIMES = (2, 3, 5, 7)


def small_prime_part(i: int) -> int:
    """Product of the primes among {2, 3, 5, 7} dividing i."""
    if i < 1:
        raise ValueError(f"small_prime_part needs i >= 1, got {i}")
    part = 1
    for p in SMALL_PRIMES:
        if i % p == 0:
            part *= p
    return part

