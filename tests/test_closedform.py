"""Exception table, mod-6 pattern, and the explicit constructions."""

import hashlib

import pytest

from torusk import lattice
from torusk.closedform import (
    EXCEPTIONS,
    EXTREMAL_K,
    best_low_height_set,
    construct_extremal,
    construct_height1,
    construct_height2,
    construct_height3,
    height_le3_max,
    pattern_or_table,
    pattern_value,
)


def test_table_shape():
    assert len(EXCEPTIONS) == 59
    assert EXCEPTIONS[1] == 3
    assert EXCEPTIONS[2] == 4
    assert EXCEPTIONS[24] == 30
    assert EXCEPTIONS[168] == 174
    assert EXCEPTIONS[384] == 387
    assert max(EXCEPTIONS) == 384


def test_table_checksum():
    # a typo in a row, or a duplicate key that drops one, changes the
    # digest; only the slow tier re-derives the rows above k = 200
    blob = "\n".join(f"{k}:{n}" for k, n in sorted(EXCEPTIONS.items())).encode()
    want = "5247cbc522f463704065fe1d0ebde03573dac511f2c37e03aeb52bb2e8a75d21"
    assert hashlib.sha256(blob).hexdigest() == want


def test_every_exception_differs_from_pattern():
    for k, n in EXCEPTIONS.items():
        assert n != pattern_value(k), k


def test_exception_deltas():
    deltas = {k: n - k for k, n in EXCEPTIONS.items() if k > 2}
    assert set(deltas.values()) <= {2, 3, 4, 5, 6}
    sixes = sorted(k for k, d in deltas.items() if d == 6)
    assert tuple(sixes) == EXTREMAL_K
    fives = [k for k, d in deltas.items() if d == 5]
    assert len(fives) == 13


def test_pattern_value_mod6():
    assert pattern_value(6) == 8
    assert pattern_value(7) == 10
    assert pattern_value(8) == 12
    assert pattern_value(9) == 12
    assert pattern_value(10) == 12
    assert pattern_value(11) == 14
    assert pattern_value(12) == 14
    assert pattern_value(200) == 204


def test_pattern_or_table():
    assert pattern_or_table(1).value == 3
    assert pattern_or_table(1).source == "tiny"
    assert pattern_or_table(2).value == 4
    assert pattern_or_table(168).value == 174
    assert pattern_or_table(168).source == "table"
    assert pattern_or_table(214).value == 217
    assert pattern_or_table(200).value == 204
    assert pattern_or_table(200).source == "pattern"
    assert pattern_or_table(170).value == 174  # same value, not an exception
    assert pattern_or_table(170).source == "pattern"


def test_height_le3_max():
    assert height_le3_max(3) == 6
    assert height_le3_max(4) == 6
    assert height_le3_max(5) == 8
    assert height_le3_max(8) == 12
    assert height_le3_max(14) == 18


@pytest.mark.parametrize("k", [1, 2, 3, 10, 101, 500])
def test_height1(k):
    q = construct_height1(k)
    assert len(q.points) == k + 2
    assert lattice.height(q) == 1
    assert lattice.check_k_nice(q.points, k) is None


@pytest.mark.parametrize("k", [3, 5, 99, 499])
def test_height2(k):
    q = construct_height2(k)
    assert len(q.points) == k + 3
    assert lattice.height(q) == 2
    assert lattice.check_k_nice(q.points, k) is None


@pytest.mark.parametrize("k", [8, 14, 20, 98, 494])
def test_height3(k):
    q = construct_height3(k)
    assert len(q.points) == k + 4
    assert lattice.height(q) == 3
    assert lattice.check_k_nice(q.points, k) is None


@pytest.mark.parametrize("k", EXTREMAL_K)
def test_extremal(k):
    q = construct_extremal(k)
    assert len(q.points) == k + 6
    assert lattice.check_k_nice(q.points, k) is None


def test_construction_domains():
    with pytest.raises(ValueError):
        construct_height2(4)
    with pytest.raises(ValueError):
        construct_height3(9)
    with pytest.raises(ValueError):
        construct_height3(2)
    with pytest.raises(ValueError):
        construct_extremal(25)


@pytest.mark.parametrize("k", list(range(3, 40)))
def test_best_low_height_matches_closed_form(k):
    q = best_low_height_set(k)
    assert len(q.points) == height_le3_max(k)
    assert lattice.check_k_nice(q.points, k) is None
    assert lattice.height(q) <= 3
