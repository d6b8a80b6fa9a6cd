"""Exact verification of the inequality suite behind the size bounds.

Every verdict here is an exact rational comparison: pi enters only
through the upper bound pi < 355/113, used on the large side of each
strict inequality.  The reports feed the argument that for k past an
explicit threshold no set of height >= 4 can beat the height <= 3
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .numtheory import beta, rho, alpha, small_prime_part
from .lp import gamma

PI_HI = Fraction(355, 113)

# coefficient of k in the density bound; needs pi's upper endpoint < 1
DENSITY_COEFF_HI = Fraction(3264) * PI_HI / 10255

SUM210_SLOPE = Fraction(4946, 3675)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality family over a parameter range.

    margin is the minimum slack observed over the non-equality
    instances; instances where the bound is attained exactly are listed
    in equality_points instead of entering the minimum.
    """

    name: str
    range: str
    holds: bool
    margin: Fraction
    equality_points: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "range": self.range,
            "holds": self.holds,
            "margin_num": self.margin.numerator,
            "margin_den": self.margin.denominator,
            "equality_points": list(self.equality_points),
        }


def check_sum210() -> BoundReport:
    """Partial sums of rho_{p_i} + alpha_{p_i} against slope 4946/3675.

    p_i is the product of the primes among 2, 3, 5, 7 dividing i.  The
    inequality sum_{i<=ell} (rho_{p_i} + alpha_{p_i}) <= (4946/3675) ell
    must hold for every ell in {1..210} and be an exact equality at
    ell = 210.  The slope makes one extra equality unavoidable: the
    summand sequence has period 210 and its two half-period sums agree,
    so the bound is attained at ell = 105 as well.
    """
    acc = Fraction(0)
    holds = True
    margin: Fraction | None = None
    equalities: list[int] = []
    for ell in range(1, 211):
        p = small_prime_part(ell)
        acc += rho(p) + alpha(p)
        slack = SUM210_SLOPE * ell - acc
        if slack < 0:
            holds = False
        if slack == 0:
            equalities.append(ell)
            continue
        if margin is None or slack < margin:
            margin = slack
    if 210 not in equalities:
        holds = False
    return BoundReport(
        name="sum210",
        range="ell in 1..210 (equality required at 210)",
        holds=holds,
        margin=margin if margin is not None else Fraction(0),
        equality_points=tuple(equalities),
    )


def density_bound(k: int, h: int) -> Fraction:
    """An upper value of (3264 pi / 10255) k + (4946/3675) h + 1, with
    pi < 355/113.

    Upper bounds the size of a k-nice set of height h once h is large
    (the analytic argument needs h >= 41020; the formula itself is
    evaluated for any positive k, h).
    """
    if k < 1 or h < 1:
        raise ValueError(f"k and h must be positive, got k = {k}, h = {h}")
    return DENSITY_COEFF_HI * k + SUM210_SLOPE * h + 1


def check_density_threshold() -> BoundReport:
    """Density bound beats k + 3 at k = h0^2 / 2 for the pivot h0 = 41020.

    With k >= h0^2 / 2 forced by the height, density_bound(k, h0) must
    stay below k + 3; combined with the coefficient of k being < 1 this
    kills all heights >= h0 at large k.
    """
    h0 = 41020
    k0 = h0 * h0 // 2
    slack = Fraction(k0 + 3) - density_bound(k0, h0)
    return BoundReport(
        name="density-threshold",
        range=f"h0 = {h0}, k = {k0}",
        holds=slack > 0 and DENSITY_COEFF_HI < 1,
        margin=slack,
    )


def size_bound(k: int, h: int) -> Fraction:
    """gamma_h * k + beta_h, the height-h size bound, exactly."""
    if not (1 <= h <= k):
        raise ValueError(f"need 1 <= h <= k, got h = {h}, k = {k}")
    return gamma(h).gamma * k + beta(h)


def _check_threshold(
    name: str, h_max: int, k0: int, h_split: int, tail: Fraction, tail_label: str
) -> BoundReport:
    """Heights 4..h_max are dead for k >= k0.

    With K = k0 for h <= h_split and K = tail * h^2 above (the least k a
    height-h set allows), each h needs gamma_h K + beta_h < K + 3.
    """
    slacks = []
    for h in range(4, h_max + 1):
        least_k = k0 if h <= h_split else tail * h * h
        slacks.append(least_k + 3 - (gamma(h).gamma * least_k + beta(h)))
    margin = min(slacks)
    return BoundReport(
        name=name,
        range=f"h in 4..{h_max} ({k0}-family to {h_split}, {tail_label}-family above)",
        holds=margin > 0,
        margin=margin,
    )


def check_threshold_3225() -> BoundReport:
    """Inequalities killing heights 4..120 for k >= 3225.

    For h in 4..80 (where k can be as small as 3225):
    3225 gamma_h + beta_h < 3228.  For h in 81..120, any k-nice set of
    height h has k >= h^2 / 2, so gamma_h h^2/2 + beta_h < h^2/2 + 3
    suffices.  All comparisons exact.
    """
    return _check_threshold("threshold-3225", 120, 3225, 80, Fraction(1, 2), "h^2/2")


def check_threshold_1892() -> BoundReport:
    """Sharper threshold: heights 4..66 are dead for k >= 1892.

    For h in 4..50: 1892 gamma_h + beta_h < 1895.  For h in 51..66,
    the improved height reduction forces k >= 3 h^2 / 4, so
    gamma_h (3 h^2 / 4) + beta_h < 3 h^2 / 4 + 3 suffices.
    """
    return _check_threshold("threshold-1892", 66, 1892, 50, Fraction(3, 4), "3h^2/4")


def check_size_bound() -> BoundReport:
    """Empirical check of the size bound against the exact at-height search.

    For k in 3..40 and each height h reachable at that k, the best size
    at exactly height h must stay within gamma_h k + beta_h.  The
    at-height search reports values only above its baseline 4; anything
    at or below 4 is within every bound here.

    Attained instances are not set apart in equality_points here; they
    enter the margin, so it is 0 whenever the bound holds: the bound is
    attained at h = 1 for every k and at h = 2 for every odd k.
    """
    from .search import IntervalTables, compute

    slacks = []
    for k in range(3, 41):
        tables = IntervalTables(k)
        for h in range(1, isqrt(2 * k) + 1):
            best_at_h = k + 2 if h == 1 else compute(k, h, 4, tables)
            if best_at_h > 4:
                slacks.append(size_bound(k, h) - best_at_h)
    margin = min(slacks)
    return BoundReport(
        name="size-bound",
        range="k in 3..40, h in 1..floor(sqrt(2k))",
        holds=margin >= 0,
        margin=margin,
    )
