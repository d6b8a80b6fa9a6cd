"""scripts/reproduce_tables.py: both tables or nothing."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"


@pytest.fixture
def reproduce():
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_writes_both(reproduce, tmp_path):
    assert reproduce.main(["--lmax", "2", "--kmax", "6", "--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["density.csv", "maxima.csv"]
    assert (tmp_path / "maxima.csv").read_text().splitlines()[1:] == [
        "3,6,pattern,2", "4,6,pattern,1", "5,8,pattern,2", "6,8,pattern,1"]


def test_reproduce_tables_mismatch_writes_nothing(reproduce, tmp_path, monkeypatch):
    real = reproduce.pattern_or_table

    def disagree_at_5(k):
        pv = real(k)
        return dataclasses.replace(pv, value=pv.value + 1) if k == 5 else pv

    monkeypatch.setattr(reproduce, "pattern_or_table", disagree_at_5)
    assert reproduce.main(["--lmax", "2", "--kmax", "6", "--outdir", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
