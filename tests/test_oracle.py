"""Independent brute-force maxima for tiny k."""

import pytest

from torusk import lattice, oracle
from torusk.closedform import pattern_or_table
from torusk.errors import BudgetError
from torusk.oracle import ORACLE_CAP, brute_force_max, symmetric_box_max
from torusk.search import max_size


@pytest.mark.parametrize("k", list(range(1, 13)))
def test_oracle_matches_closed_form(k):
    out = brute_force_max(k)
    assert out.max_size == pattern_or_table(k).value
    assert out.witness is not None
    assert len(out.witness.points) == out.max_size
    assert lattice.check_k_nice(out.witness.points, k) is None


@pytest.mark.parametrize("k", list(range(3, 13)))
def test_oracle_matches_search(k):
    assert brute_force_max(k).max_size == max_size(k).max_size


def test_oracle_budget(monkeypatch):
    with pytest.raises(BudgetError, match=f"k <= {ORACLE_CAP}, got {ORACLE_CAP + 1}"):
        brute_force_max(ORACLE_CAP + 1)
    with pytest.raises(BudgetError, match="k <= 6, got 7"):
        symmetric_box_max(7)
    # the cap is read at call time, so raising it reaches one k further
    monkeypatch.setattr(oracle, "ORACLE_CAP", ORACLE_CAP + 1)
    out = brute_force_max(ORACLE_CAP + 1)
    assert out.max_size == pattern_or_table(ORACLE_CAP + 1).value


@pytest.mark.parametrize("k", list(range(1, 7)))
def test_symmetric_box_agrees(k):
    # no forced seed points, antipodes excluded pairwise instead
    assert symmetric_box_max(k) == pattern_or_table(k).value


def test_oracle_height_cap_restricts():
    # height cap 1 can only reach the flat construction
    out = brute_force_max(5, h_cap=1)
    assert out.max_size == 7
