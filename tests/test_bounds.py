"""Inequality families: averaged totient sums, thresholds, size bounds."""

from fractions import Fraction

import pytest

from torusk import numtheory
from torusk.bounds import (
    DENSITY_COEFF_HI,
    PI_HI,
    SUM210_SLOPE,
    check_density_threshold,
    check_size_bound,
    check_sum210,
    check_threshold_3225,
    check_threshold_1892,
    density_bound,
    size_bound,
)
from torusk.lp import gamma


def test_pi_enclosure():
    import math

    assert math.pi < float(PI_HI)


def test_density_coefficient_below_one():
    assert Fraction(9999, 10000) < DENSITY_COEFF_HI < 1


def test_sum210_holds_with_equality_at_both_half_periods():
    rep = check_sum210()
    assert rep.holds
    # the summand sequence has period 210 and equal half-period sums, so
    # the slope is attained at 105 as well as at 210
    assert rep.equality_points == (105, 210)
    assert rep.margin == Fraction(16, 105)


def test_sum210_slope_partial_sums_direct():
    # recompute the partial sums from scratch with no shared code path
    total = Fraction(0)
    for ell in range(1, 211):
        p = numtheory.small_prime_part(ell)
        total += numtheory.rho(p) + numtheory.alpha(p)
        assert total <= SUM210_SLOPE * ell, ell
        if ell in (105, 210):
            assert total == SUM210_SLOPE * ell


def test_density_bound_orders():
    hi = density_bound(1000, 50)
    # the same formula with pi > 311/99 lies below it, and within 1/10
    lo = Fraction(3264 * 311, 10255 * 99) * 1000 + SUM210_SLOPE * 50 + 1
    assert lo < hi
    assert hi - lo < Fraction(1, 10)
    with pytest.raises(ValueError):
        density_bound(0, 5)


def test_density_threshold_at_pivot():
    rep = check_density_threshold()
    assert rep.holds
    assert rep.margin > 0


def test_size_bound_flat_heights_exact():
    assert size_bound(10, 1) == 12
    assert size_bound(99, 1) == 101
    assert size_bound(24, 3) == 24 + Fraction(13, 3)
    assert size_bound(24, 5) >= 30


def test_size_bound_validation():
    with pytest.raises(ValueError):
        size_bound(5, 0)
    with pytest.raises(ValueError):
        size_bound(5, 6)


def test_threshold_family_small():
    rep = check_threshold_3225()
    assert rep.holds
    assert rep.margin > 0


def test_sharper_threshold_family_small():
    rep = check_threshold_1892()
    assert rep.holds
    assert rep.margin > 0


def test_size_bound_respected_by_search():
    rep = check_size_bound()
    assert rep.holds
    # attained at h = 1 for every k, and attained instances enter the margin
    assert rep.margin == 0


def test_report_json_shape():
    d = check_sum210().to_json_dict()
    assert set(d) == {
        "name",
        "range",
        "holds",
        "margin_num",
        "margin_den",
        "equality_points",
    }
    assert d["name"] == "sum210"
    assert d["holds"] is True
    assert d["equality_points"] == [105, 210]
