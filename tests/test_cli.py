"""Command-line surface: outputs, exit codes, flags."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plan_mutants import PLAN_MUTANTS, patch_plan
from torusk import cli, lp, search
from torusk.cli import main
from torusk.closedform import pattern_or_table
from torusk.lattice import check_k_nice


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_memo():
    # start from an empty memo, so gamma(4) is solved in the test itself
    # rather than read back from an earlier test's solve
    lp._solve_northwest.cache_clear()


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
    code, out, _ = run_cli(capsys, "compute", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["max_size"] == 3
    assert run_cli(capsys, "compute", "--k", "1") == (0, "N(1) = 3\n", "")


@pytest.mark.parametrize("k", [1, 2])
def test_compute_tiny_k_json_witness(capsys, k):
    # max_size answers k < 3 without a search, still with a checked witness
    code, out, _ = run_cli(capsys, "compute", "--k", str(k), "--json", "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_size"] == k + 2
    assert len(payload["witness"]) == k + 2
    assert check_k_nice([tuple(p) for p in payload["witness"]], k) is None
    # without --witness the payload has no witness and no per-height rows
    plain = f'{{"k": {k}, "max_size": {k + 2}, "per_height": []}}\n'
    assert run_cli(capsys, "compute", "--k", str(k), "--json") == (0, plain, "")


def test_compute_json_witness(capsys):
    code, out, _ = run_cli(capsys, "compute", "--k", "24", "--json", "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_size"] == 30
    assert len(payload["witness"]) == 30
    assert all(len(p) == 2 for p in payload["witness"])
    assert payload["per_height"][-1]["h"] == 6


@pytest.mark.parametrize("k", ["2", "24"])
def test_compute_witness_without_json_is_usage_error(capsys, k):
    # the text output is N(k) alone and would drop the witness silently
    code, out, err = run_cli(capsys, "compute", "--k", k, "--witness")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert "--witness" in err


def test_compute_single_height(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--k", "24", "--h", "5", "--baseline", "26"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 30
    assert payload["baseline"] == 26


def test_compute_single_height_witness_null_at_or_below_baseline(capsys):
    # the height-5 stratum of k = 24 reaches 30, so baseline 31 is not beaten
    # and the witness is null rather than left out
    code, out, _ = run_cli(
        capsys, "compute", "--k", "24", "--h", "5", "--baseline", "31", "--witness"
    )
    assert code == 0
    assert out == '{"baseline": 31, "h": 5, "k": 24, "value": 31, "witness": null}\n'


def test_compute_single_height_witness_above_baseline(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--k", "24", "--h", "5", "--baseline", "29", "--witness"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 30
    points = [tuple(p) for p in payload["witness"]]
    assert len(set(points)) == 30
    assert max(y for _, y in points) == 5
    assert check_k_nice(points, 24) is None


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
        ("verify-height", "--from", "10", "--to", "5"),
        ("verify-height", "--k", "5", "--from", "3", "--to", "9"),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--k", "0"),
        ("compute", "--k", "5", "--h", "3", "--baseline", "0"),
        ("oracle", "--k", "0"),
        ("lp-gamma", "--l", "0"),
        ("certify-dual", "--l", "0"),
        ("table", "--from", "0", "--to", "3"),
    ],
)
def test_flags_below_one_are_parser_errors(monkeypatch, capsys, argv):
    def no_call(*args, **kwargs):
        raise AssertionError("library called before the flags were checked")

    for owner, name in [(cli, "max_size"), (cli, "brute_force_max"),
                        (cli, "compute_with_witness"), (lp, "gamma"), (lp, "_certified_dual")]:
        monkeypatch.setattr(owner, name, no_call)
    flag = argv[argv.index("0") - 1]
    assert run_cli(capsys, *argv) == (1, "", f"usage error: argument {flag}: must be >= 1, got 0\n")


@pytest.mark.parametrize(
    "argv",
    [("compute", "--k", "abc"), ("table", "--from", "3", "--to", "4", "--threads", "x")],
)
def test_non_integer_flag_names_int_not_the_parser_type(capsys, argv):
    # the same wording as a plain int flag such as --h
    *_, flag, text = argv
    assert run_cli(capsys, *argv) == (
        1, "", f"usage error: argument {flag}: invalid int value: {text!r}\n")


def test_threads_below_one_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "table", "--from", "3", "--to", "4", "--threads", "0")
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--out", "OUT/result.txt", "compute", "--k", "5"),
        ("--threads", "2", "table", "--from", "3", "--to", "4"),
        ("--long", "certify-dual", "--l", "5"),
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


def test_oracle_witnesses_pinned(capsys):
    # the reported witnesses, not just their sizes, for every k the oracle takes
    runs = [run_cli(capsys, "oracle", "--k", str(k), "--json") for k in range(1, 13)]
    assert all(code == 0 and err == "" for code, _, err in runs)
    digest = hashlib.sha256("".join(out for _, out, _ in runs).encode()).hexdigest()
    assert digest == "0ec80125b34de18ef92c4d151cd3c93ecdd7efb4f3cfda7258c42b3b1062f4d3"


def test_oracle_budget_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--k", "13")
    assert code == 3
    assert "budget" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "12")
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
    code, out, _ = run_cli(capsys, "table", "--from", "1", "--to", "4")
    assert code == 0
    assert "1,3,tiny" in out
    assert "2,4,tiny" in out


def test_table_mismatch_prints_the_table_and_exits_two(capsys, monkeypatch):
    def disagree_at_5(k):
        pv = pattern_or_table(k)
        return dataclasses.replace(pv, value=pv.value + 1) if k == 5 else pv

    monkeypatch.setattr(cli, "pattern_or_table", disagree_at_5)
    assert run_cli(capsys, "table", "--from", "3", "--to", "6") == (
        2,
        "k,N,source\n3,6,pattern\n4,6,pattern\n5,9,pattern\n6,8,pattern\n",
        "verification failed: table mismatch: k=5: closed=9, search=8\n",
    )


def test_table_mismatch_when_the_search_reads_the_same_table(capsys, monkeypatch):
    # the search floors its sweep at one below the tabulated N(k); with the
    # table overstated for both, the search falls back and still finds 30,
    # so the check is not circular
    def overstate_24(k):
        pv = pattern_or_table(k)
        return dataclasses.replace(pv, value=31) if k == 24 else pv

    monkeypatch.setattr(cli, "pattern_or_table", overstate_24)
    monkeypatch.setattr(search, "pattern_or_table", overstate_24)
    assert run_cli(capsys, "table", "--from", "24", "--to", "24") == (
        2,
        "k,N,source\n24,31,table\n",
        "verification failed: table mismatch: k=24: closed=31, search=30\n",
    )


@pytest.mark.parametrize(
    "argv",
    [("compute", "--k", "24"), ("compute", "--k", "24", "--h", "5"),
     ("table", "--from", "24", "--to", "24")],
)
def test_short_search_witness_exits_two(capsys, monkeypatch, argv):
    # a witness that disagrees with the search value is a failed check,
    # not a crash: exit 2 with the check's message
    real = search._witness_from_choices

    def one_short(k, choices):
        witness = real(k, choices)
        return type(witness).from_points(sorted(witness.points)[1:], k)

    monkeypatch.setattr(search, "_witness_from_choices", one_short)
    assert run_cli(capsys, *argv) == (
        2, "", "verification failed: witness size 29 disagrees with value 30\n"
    )


def test_table_budget_guard(capsys):
    code, _, err = run_cli(capsys, "table", "--from", "1", "--to", "2500")
    assert code == 3
    assert "--long" in err


@pytest.fixture
def stub_search(monkeypatch):
    # stands in for max_size so a sweep near the budget runs instantly; the
    # stub's answer is the closed form, so a sweep it serves matches
    searched = []

    def stub(k):
        searched.append(k)
        return search.SearchOutcome(k, pattern_or_table(k).value, None, ())

    monkeypatch.setattr(cli, "max_size", stub)
    return searched


@pytest.mark.parametrize("lo", ["1", "401"])
def test_table_search_budget_checked_before_searching(capsys, stub_search, lo):
    code, out, err = run_cli(capsys, "table", "--from", lo, "--to", "401")
    assert (code, out, stub_search) == (3, "", [])
    assert err == (
        "budget exceeded: table --to 401 searches past k = 400; "
        "pass --long or --no-check\n"
    )


@pytest.mark.parametrize(
    "lo, hi, extra, searched",
    [
        ("399", "400", (), [399, 400]),
        ("400", "401", ("--long",), [400, 401]),
        ("400", "401", ("--no-check",), []),
    ],
)
def test_table_search_budget_allows(capsys, stub_search, lo, hi, extra, searched):
    code, out, _ = run_cli(capsys, "table", "--from", lo, "--to", hi, *extra)
    assert (code, stub_search) == (0, searched)
    assert out.splitlines()[-1].startswith(hi + ",")


def test_lp_gamma_single(capsys):
    code, out, _ = run_cli(capsys, "lp-gamma", "--l", "4")
    assert code == 0
    assert out == "35/36 (0.9722)\n"


def test_lp_gamma_table(capsys):
    code, out, _ = run_cli(capsys, "lp-gamma", "--lmax", "6")
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


# sha256 of the stdout of certify-dual --l 300, plain and with --perturbed
# --json, recorded while certificate rows were tuples of ints.  Past
# ell = 256 column sums carry, so verify() sums the columns one by one.
CERTIFY_300_DIGESTS = {
    (): "795f3fea1adb487682a17ca412231c49ca93a7e03b12eb5bab63b19009ab277a",
    ("--perturbed", "--json"): "585f89729df4abcff53e807bfbf0a4fe9fee0efeef8f27238c23ff47e9aab570",
}


@pytest.mark.parametrize("extra", list(CERTIFY_300_DIGESTS), ids=["text", "perturbed-json"])
def test_certify_dual_300_output_pinned(capsys, extra):
    code, out, _ = run_cli(capsys, "certify-dual", "--l", "300", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CERTIFY_300_DIGESTS[extra]


@pytest.mark.parametrize("extra", [(), ("--perturbed",), ("--json",)])
def test_certify_dual_budget_checked_before_building(monkeypatch, capsys, extra):
    def no_build(ell, *_):
        raise AssertionError(f"certificate for ell = {ell} built before the budget check")

    monkeypatch.setattr(lp, "_certified_dual", no_build)
    monkeypatch.setattr(lp, "dual_matrix", no_build)
    monkeypatch.setattr(lp, "perturbed_dual_matrix", no_build)
    code, out, err = run_cli(capsys, "certify-dual", "--l", "2001", *extra)
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: certify-dual --l 2001 exceeds 2000; pass --long\n"


def test_certify_dual_long_lifts_budget(monkeypatch, capsys):
    real, built = lp._certified_dual, []

    def small(ell, perturbed):
        built.append(ell)
        return real(4, perturbed)

    monkeypatch.setattr(lp, "_certified_dual", small)
    code, _, _ = run_cli(capsys, "certify-dual", "--l", "2001", "--long")
    assert (code, built) == (0, [2001])


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


@pytest.mark.parametrize("argv, want", [
    ((), "ac538a35de6d83d7875fc984cf18b12f12051ed0003af926de64d28c1307a185"),
    (("--json",), "35edb0ca88dd6ae111207481329f2d37f826ebaad20df64c1e3cdeeb08443f47"),
], ids=["text", "json"])
def test_bounds_all_pinned(capsys, argv, want):
    # every suite's range, verdict and exact margin
    code, out, err = run_cli(capsys, "bounds", "--suite", "all", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want


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


def test_out_to_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.txt"
    code, out, err = run_cli(capsys, "lp-gamma", "--l", "5", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"usage error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_cache_env_var_is_ignored(tmp_path, capsys, fresh_memo, monkeypatch):
    # gamma is solved afresh each run and nothing reads or writes a cache
    monkeypatch.setenv("TORUSK_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, "lp-gamma", "--l", "4") == (0, "35/36 (0.9722)\n", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--k", "5", "--threads", "2"),
        ("compute", "--k", "5", "--long"),
        ("oracle", "--k", "3", "--cache-dir", "OUT"),
        ("lp-gamma", "--l", "4", "--cache-dir", "OUT"),
        ("bounds", "--suite", "sum210", "--cache-dir", "OUT"),
        ("certify-dual", "--l", "3", "--threads", "3"),
        ("table", "--from", "3", "--to", "4", "--csv"),
        ("lp-gamma", "--l", "4", "--csv"),
        ("lp-gamma", "--l", "4", "--method", "simplex"),  # gamma has one path
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, argv):
    argv = [a.replace("OUT", str(tmp_path / "cache")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: unrecognized arguments:")
    assert list(tmp_path.iterdir()) == []


def test_northwest_failure_exits_two_and_memoizes_nothing(capsys, fresh_memo, monkeypatch):
    # each mutant of the northwest plan or its potentials fails verify_gamma
    # for gamma(4), and there is no fallback to hide it
    for mutant, (_, _, message) in PLAN_MUTANTS.items():
        with monkeypatch.context() as m:
            patch_plan(m, mutant)
            code, out, err = run_cli(capsys, "lp-gamma", "--l", "4")
        assert (code, out, err) == (2, "", f"verification failed: gamma(4): {message}\n"), mutant
        assert lp._solve_northwest.cache_info().currsize == 0


def test_threaded_table_matches_serial(capsys):
    # pool.map hands the rows back in k order, as the serial list does
    serial = run_cli(capsys, "table", "--from", "3", "--to", "30")
    threaded = run_cli(capsys, "table", "--from", "3", "--to", "30", "--threads", "2")
    assert serial[0] == 0 and len(serial[1].splitlines()) == 29
    assert threaded == serial


def test_table_byte_determinism(capsys):
    _, first, _ = run_cli(capsys, "table", "--from", "3", "--to", "10")
    _, second, _ = run_cli(capsys, "table", "--from", "3", "--to", "10")
    assert first == second


def test_imports_stay_light():
    # nothing in the package imports numpy or scipy, not even a cold gamma
    # solve or the density table, and the process pools load only with a
    # threaded command; every search, certify and lattice run pays for what
    # a plain import pulls in
    src = Path(lp.__file__).resolve().parents[1]
    heavy = ("numpy", "scipy", "multiprocessing", "concurrent.futures")
    code = (
        "import sys\n"
        "import torusk.search, torusk.lattice, torusk.lp, torusk.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
        "torusk.lp.gamma(40)\n"
        "torusk.lp.density_table_csv(8)\n"
        f"print(sorted(m for m in {heavy[:2]!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n[]\n"


def test_max_size_imports_no_lp():
    # the maxima path compiles what it imports on every cold start: a search
    # for N(120), which reads the exception table, must not pull in the LP,
    # its bounds or hashlib, which loads OpenSSL's libcrypto
    src = Path(lp.__file__).resolve().parents[1]
    unused = ("torusk.lp", "torusk.bounds", "torusk.numtheory", "hashlib", "_hashlib")
    code = (
        "import sys\n"
        "import torusk.search\n"
        "torusk.search.max_size(120)\n"
        f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
