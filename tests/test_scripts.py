"""scripts/reproduce_tables.py writes both tables or nothing;
scripts/show_extremal.py re-verifies the four k + 6 sets."""

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kmax", "-5"), "argument --kmax: must be >= 3, got -5"),
        (("--kmax", "2"), "argument --kmax: must be >= 3, got 2"),
        (("--lmax", "0"), "argument --lmax: must be >= 1 and <= 256, got 0"),
        (("--lmax", "257"), "argument --lmax: must be >= 1 and <= 256, got 257"),
        (("--lmax", "x"), "argument --lmax: invalid int value: 'x'"),
    ],
)
def test_reproduce_tables_bad_flag_is_usage_error(
    reproduce, tmp_path, capsys, monkeypatch, argv, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built before the flags were checked")

    monkeypatch.setattr(reproduce, "density_table_csv", no_work)
    monkeypatch.setattr(reproduce, "max_size", no_work)
    with pytest.raises(SystemExit) as exc:
        reproduce.main([*argv, "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
