"""scripts/show_extremal.py re-verifies the four k + 6 sets and fails when
the search or the k-nice check disagrees."""

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SHOW = Path(__file__).resolve().parent.parent / "scripts" / "show_extremal.py"


@pytest.fixture
def show():
    spec = importlib.util.spec_from_file_location("show_extremal", SHOW)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_show_extremal_verifies_the_four_sets(show, capsys):
    assert show.main() == 0
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.endswith("= k + 6 points")]
    assert headers == [
        "k = 24 = 5^2 - 1: 30 = k + 6 points",
        "k = 48 = 7^2 - 1: 54 = k + 6 points",
        "k = 120 = 11^2 - 1: 126 = k + 6 points",
        "k = 168 = 13^2 - 1: 174 = k + 6 points",
    ]


def test_show_extremal_fails_when_search_disagrees(show, capsys, monkeypatch):
    real = show.max_size
    monkeypatch.setattr(
        show, "max_size", lambda k: dataclasses.replace(real(k), max_size=k + 5))
    assert show.main() == 1
    assert "k = 24: search finds N(24) = 29, not k + 6" in capsys.readouterr().err


def test_show_extremal_fails_on_a_set_that_is_not_k_nice(show, capsys, monkeypatch):
    # the script's own name only: construct_extremal checks through lattice too
    monkeypatch.setattr(
        show, "lattice", SimpleNamespace(check_k_nice=lambda points, k: "a pair too far"))
    assert show.main() == 1
    assert "k = 24: the k + 6 set is not k-nice: a pair too far" in capsys.readouterr().err
