"""Command-line surface: outputs, exit codes, caching."""

import json

import pytest

from torusk import lp
from torusk.cli import main
from torusk.closedform import pattern_or_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_memo(monkeypatch):
    # the cache holds the whole memo and every load re-verifies it, so start
    # from nothing rather than from every gamma earlier tests computed
    monkeypatch.setattr(lp, "_gamma_memo", {})


def test_missing_required_arg(capsys):
    code, _, err = run_cli(capsys, "compute")
    assert code == 1
    assert "usage error" in err


def test_unknown_command(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_compute_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "--k", "24")
    assert code == 0
    assert out == "N(24) = 30\n"


def test_compute_tiny_k(capsys):
    code, out, _ = run_cli(capsys, "compute", "--k", "1")
    assert code == 0
    assert json.loads(out)["max_size"] == 3


def test_compute_json_witness(capsys):
    code, out, _ = run_cli(capsys, "compute", "--k", "24", "--json", "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_size"] == 30
    assert len(payload["witness"]) == 30
    assert all(len(p) == 2 for p in payload["witness"])
    assert payload["per_height"][-1]["h"] == 6


def test_compute_single_height(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--k", "24", "--h", "5", "--baseline", "26"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 30
    assert payload["baseline"] == 26


def test_compute_single_height_rejects_bad_height(capsys):
    code, out, err = run_cli(capsys, "compute", "--k", "5", "--h", "1")
    assert code == 1
    assert out == ""
    assert "usage error" in err


def test_compute_single_height_rejects_bad_baseline(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--k", "5", "--h", "3", "--baseline", "0"
    )
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [("--k", "2", "--h", "5"), ("--k", "5", "--baseline", "0"), ("--k", "5", "--baseline", "7")],
)
def test_compute_flags_checked_before_shortcuts(capsys, argv):
    code, out, err = run_cli(capsys, "compute", *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("certify-dual", "--l", "3", "--perturbed"),
        ("lp-gamma", "--l", "0"),
        ("verify-height", "--k", "3", "--h", "1"),
        ("verify-height", "--from", "-5", "--to", "3"),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_threads_below_one_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--k", "5", "--threads", "0")
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--out", "OUT/result.txt", "compute", "--k", "5"),
        ("--cache-dir", "OUT/cache", "lp-gamma", "--l", "4"),
        ("--threads", "0", "compute", "--k", "5"),
        ("--long", "compute", "--k", "5"),
    ],
)
def test_shared_flag_before_subcommand_is_usage_error(tmp_path, capsys, argv):
    argv = [a.replace("OUT", str(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--lmax", "0"), 1),
        (("--lmax", "-3"), 1),
        (("--l", "4", "--lmax", "2"), 1),
        (("--lmax", "257"), 3),
    ],
)
def test_lp_gamma_lmax_bounds_checked_before_solving(monkeypatch, capsys, argv, want):
    def no_solve(*args, **kwargs):
        raise AssertionError("gamma solved before the bounds were checked")

    monkeypatch.setattr(lp, "gamma", no_solve)
    code, out, err = run_cli(capsys, "lp-gamma", *argv)
    assert code == want
    assert out == ""
    assert err.startswith("budget exceeded:" if want == 3 else "usage error:")


def test_oracle_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "5")
    assert code == 0
    assert out == "N(5) = 8\n"


def test_oracle_budget_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--k", "13")
    assert code == 3
    assert "budget" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "12", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,N,source"
    assert len(lines) == 11
    for line in lines[1:]:
        k, n, source = line.split(",")
        pv = pattern_or_table(int(k))
        assert int(n) == pv.value
        assert source == pv.source


def test_table_includes_tiny(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "1", "--to", "4", "--csv")
    assert code == 0
    assert "1,3,tiny" in out
    assert "2,4,tiny" in out


def test_table_budget_guard(capsys):
    code, _, err = run_cli(capsys, "table", "--from", "1", "--to", "2500")
    assert code == 3
    assert "--long" in err


def test_lp_gamma_single(capsys):
    code, out, _ = run_cli(capsys, "lp-gamma", "--l", "4")
    assert code == 0
    assert out == "35/36 (0.9722)\n"


def test_lp_gamma_table(capsys):
    code, out, _ = run_cli(capsys, "lp-gamma", "--lmax", "6", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "ell,rho,alpha,gamma,beta"
    assert len(lines) == 7
    assert lines[4] == "4,0.5000,0.5000,0.9722,5.3333"


def test_certify_dual_json(capsys):
    code, out, _ = run_cli(
        capsys, "certify-dual", "--l", "7", "--perturbed", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert (payload["value_num"], payload["value_den"]) == (629, 630)
    assert len(payload["matrix"]) == 7


def test_certify_dual_text(capsys):
    code, out, _ = run_cli(capsys, "certify-dual", "--l", "5")
    assert code == 0
    assert out.strip().split("\n")[-1] == "feasible, value = 1/1 (1.0000)"


def test_verify_height_failure_exit(capsys):
    code, out, err = run_cli(capsys, "verify-height", "--k", "3", "--h", "2")
    assert code == 2
    row = json.loads(out)
    assert row == {"h": 2, "k": 3, "verified": False, "witness": [1, 1, 2]}
    assert "not verified" in err


def test_verify_height_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-height", "--k", "24", "--h", "6")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_height_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify-height", "--from", "2", "--to", "50")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert all(r["verified"] for r in rows)


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--suite", "sum210", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["equality_points"] == [105, 210]


def test_bounds_density_threshold_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--suite", "density-threshold")
    assert code == 0
    assert out == ("density-threshold: holds over h0 = 41020, k = 841320200,"
                   " min margin 163344274/11865\n")


def test_bounds_density_threshold_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--suite", "density-threshold", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "density-threshold"
    assert payload["holds"] is True
    assert (payload["margin_num"], payload["margin_den"]) == (163344274, 11865)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "compute", "--k", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "N(5) = 8\n"


def test_cache_write_and_corruption_recovery(tmp_path, capsys, fresh_memo):
    cache = tmp_path / "cache"
    code, _, _ = run_cli(
        capsys, "lp-gamma", "--lmax", "8", "--cache-dir", str(cache)
    )
    assert code == 0
    gamma_file = cache / "gamma.txt"
    assert [p.name for p in cache.iterdir()] == ["gamma.txt"]

    # a clean second run stays quiet
    code, out, err = run_cli(
        capsys, "lp-gamma", "--l", "4", "--cache-dir", str(cache)
    )
    assert code == 0
    assert out == "35/36 (0.9722)\n"
    assert err == ""

    # corruption is noticed, warned about, and recovered from
    gamma_file.write_text(gamma_file.read_text().replace("35/36", "34/36"))
    code, out, err = run_cli(
        capsys, "lp-gamma", "--l", "4", "--cache-dir", str(cache)
    )
    assert code == 0
    assert out == "35/36 (0.9722)\n"
    assert "ignoring bad gamma cache" in err


def _resign(path, edit) -> None:
    """Edit the parsed records and rewrite the file with a matching checksum."""
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:-1]]
    edit(records)
    body = [lines[0]] + [json.dumps(rec) for rec in records]
    path.write_text("\n".join(body + [f"sha256 {lp._checksum(body)}"]) + "\n")


def _bad_key(path):
    def edit(records):
        records[0]["dual"][0][0] = ["pair", 0, 9, 1]
    _resign(path, edit)


def _wrong_gamma(path):
    def edit(records):
        records[0]["gamma"] = "17/18"
    _resign(path, edit)


def _old_format(path):
    path.write_text("torusk-gamma 1\n4 35/36\nsha256 0\n")


@pytest.mark.parametrize("spoil", [_bad_key, _wrong_gamma, _old_format])
def test_bad_cache_is_rebuilt(tmp_path, capsys, fresh_memo, spoil):
    cache = tmp_path / "cache"
    run_cli(capsys, "lp-gamma", "--l", "4", "--cache-dir", str(cache))
    spoil(cache / "gamma.txt")
    code, out, err = run_cli(capsys, "lp-gamma", "--l", "4", "--cache-dir", str(cache))
    assert (code, out) == (0, "35/36 (0.9722)\n")
    assert err.count("ignoring bad gamma cache") == 1
    # that run rebuilt the file, so the next one loads it quietly
    code, out, err = run_cli(capsys, "lp-gamma", "--l", "4", "--cache-dir", str(cache))
    assert (code, out, err) == (0, "35/36 (0.9722)\n", "")


def test_non_gamma_commands_leave_cache_alone(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "gamma.txt").write_text("not a cache\n")
    code, out, err = run_cli(capsys, "compute", "--k", "5", "--cache-dir", str(cache))
    assert (code, out, err) == (0, "N(5) = 8\n", "")
    assert (cache / "gamma.txt").read_text() == "not a cache\n"


def test_table_byte_determinism(capsys):
    _, first, _ = run_cli(capsys, "table", "--from", "3", "--to", "10", "--csv")
    _, second, _ = run_cli(capsys, "table", "--from", "3", "--to", "10", "--csv")
    assert first == second
