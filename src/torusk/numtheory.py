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
from dataclasses import dataclass
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


def totients(n: int) -> list[int]:
    """[0, phi(1), ..., phi(n)] from one sieve; totient is its test oracle."""
    if n < 0:
        raise ValueError(f"totients needs n >= 0, got {n}")
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime reduced it, so p is prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


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
    if hi < lo:
        return 0
    if ell < 1:
        raise ValueError(f"coprime_count needs ell >= 1, got {ell}")
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
    here.  The inner loop is integer-scaled: with rho = pn/pd maximize
    count * pd - pn * length.
    """
    if ell < 1:
        raise ValueError(f"alpha needs ell >= 1, got {ell}")
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


_beta_lock = threading.Lock()
_beta_memo: dict[int, Fraction] = {0: Fraction(1)}


def beta(ell: int) -> Fraction:
    """beta_0 = 1, beta_ell = beta_{ell-1} + alpha(ell) + rho(ell).  Memoized."""
    if ell < 0:
        raise ValueError(f"beta needs ell >= 0, got {ell}")
    with _beta_lock:
        known = max(i for i in _beta_memo if i <= ell)
        acc = _beta_memo[known]
        for i in range(known + 1, ell + 1):
            acc = acc + alpha(i) + rho(i)
            _beta_memo[i] = acc
        return _beta_memo[ell]


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


@dataclass(frozen=True)
class DensityTriple:
    """The (rho, alpha, beta) values at one modulus."""

    ell: int
    rho: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if not (0 < self.rho <= 1):
            raise ValueError(f"rho out of range at ell={self.ell}: {self.rho}")
        if self.alpha < 0:
            raise ValueError(f"alpha negative at ell={self.ell}: {self.alpha}")


def triples(ell: int) -> DensityTriple:
    return DensityTriple(ell=ell, rho=rho(ell), alpha=alpha(ell), beta=beta(ell))

