"""Command line front end.

Subcommands map one-to-one onto the library modules: compute (full
per-height pipeline), oracle (brute force), table (range sweep with
closed-form reconciliation), lp-gamma, certify-dual, verify-height and
bounds.  Exit codes: 0 ok, 1 usage, 2 a verification failed, 3 a size
or time budget was exceeded.  Output is deterministic byte-for-byte for
a fixed command line and cache state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import BudgetError, CacheError, VerificationError
from . import bounds as bounds_mod
from . import lp
from .closedform import pattern_or_table
from .heights import sweep, verify_height
from .oracle import brute_force_max
from .search import max_size

_GAMMA_CACHE = "gamma.txt"
_GAMMA_COMMANDS = ("lp-gamma", "bounds")  # the commands that load and save it


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this CLI reserves 2 for verification
    # failures, so usage problems surface as exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    # the shared flags go on each subcommand only, so a flag given before the
    # subcommand name is a usage error rather than silently overwritten
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (env TORUSK_CACHE_DIR as fallback)")
    common.add_argument("--threads", type=positive_int, default=1)
    common.add_argument("--long", action="store_true", dest="long_mode",
                        help="allow full-scale sweeps (hours)")
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    parser = _Parser(prog="torusk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("compute", _run_compute,
                   help="maximum k-nice set size via the search pipeline")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="restrict to one height")
    p.add_argument("--baseline", type=int, default=None,
                   help="initial lower bound N for a single-height run")
    p.add_argument("--witness", action="store_true", help="include a witness set")
    p.add_argument("--json", action="store_true")

    p = add_parser("oracle", _run_oracle, help="brute-force maximum for tiny k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add_parser("table", _run_table, help="k range sweep, closed form vs search")
    p.add_argument("--from", dest="k_from", type=int, required=True)
    p.add_argument("--to", dest="k_to", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--no-check", action="store_true",
                   help="emit closed-form values only, skip the search cross-check")

    p = add_parser("lp-gamma", _run_lp_gamma, help="exact LP optimum gamma_ell")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--l", dest="ell", type=int, default=None)
    which.add_argument("--lmax", dest="ell_max", type=positive_int, default=None,
                       help="emit a csv table for ell = 1..lmax")
    p.add_argument("--method", choices=lp.METHODS, default="guided")
    p.add_argument("--csv", action="store_true")

    p = add_parser("certify-dual", _run_certify_dual,
                   help="emit and verify a dual certificate matrix")
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--perturbed", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add_parser("verify-height", _run_verify_height, help="height reduction verdicts")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--from", dest="k_from", type=int, default=None)
    p.add_argument("--to", dest="k_to", type=int, default=None)

    p = add_parser("bounds", _run_bounds, help="inequality suite reports")
    p.add_argument("--suite", choices=("sum210", "threshold-3225", "threshold-1892", "size-bound",
                                       "density-threshold", "all"), default="all")
    p.add_argument("--json", action="store_true")
    return parser


def _load_gamma_cache(cache_dir: str) -> None:
    gamma_file = Path(cache_dir) / _GAMMA_CACHE
    if gamma_file.exists():
        try:
            lp.warm_gamma_memo(lp.load_gamma_cache(gamma_file))
        except (CacheError, VerificationError) as exc:
            print(f"warning: ignoring bad gamma cache: {exc}", file=sys.stderr)


def _save_gamma_cache(cache_dir: str) -> None:
    snapshot = lp.gamma_memo_snapshot()
    if snapshot:
        base = Path(cache_dir)
        base.mkdir(parents=True, exist_ok=True)
        lp.save_gamma_cache(base / _GAMMA_CACHE, snapshot)


def _run_compute(args: argparse.Namespace) -> tuple[str, int]:
    k = args.k
    if k < 1:
        raise _UsageError("compute needs --k >= 1")
    if args.baseline is not None and args.h is None:
        raise _UsageError("compute --baseline needs --h")
    if args.h is not None:
        from .search import compute_with_witness

        baseline = args.baseline if args.baseline is not None else 1
        if not 2 <= args.h <= k:
            raise _UsageError(f"compute needs 2 <= --h <= --k, got --h {args.h}")
        if baseline < 1:
            raise _UsageError(f"compute needs --baseline >= 1, got {baseline}")
        value, wit = compute_with_witness(k, args.h, baseline)
        out = {"k": k, "h": args.h, "baseline": baseline, "value": value}
        if args.witness and wit is not None:
            out["witness"] = [[m, n] for (m, n) in wit.points]
        return json.dumps(out, sort_keys=True) + "\n", 0
    if k < 3:
        # too small for the pipeline; closed form answers directly
        pv = pattern_or_table(k)
        out = {"k": k, "max_size": pv.value, "per_height": []}
        return json.dumps(out, sort_keys=True) + "\n", 0
    outcome = max_size(k)
    payload = outcome.to_json_dict()
    if not args.witness:
        payload.pop("witness", None)
    if args.json:
        return json.dumps(payload, sort_keys=True) + "\n", 0
    return f"N({k}) = {outcome.max_size}\n", 0


def _run_oracle(args: argparse.Namespace) -> tuple[str, int]:
    k = args.k
    if k < 1:
        raise _UsageError("oracle needs --k >= 1")
    outcome = brute_force_max(k)
    if args.json:
        return json.dumps(outcome.to_json_dict(), sort_keys=True) + "\n", 0
    return f"N({k}) = {outcome.max_size}\n", 0


def _table_row(args: tuple[int, bool]) -> tuple[int, int, str, int | None]:
    k, check = args
    pv = pattern_or_table(k)
    searched = max_size(k).max_size if (check and k >= 3) else None
    return k, pv.value, pv.source, searched


def _run_table(args: argparse.Namespace) -> tuple[str, int]:
    lo, hi = args.k_from, args.k_to
    if lo < 1 or hi < lo:
        raise _UsageError("table needs 1 <= from <= to")
    if hi - lo > 2000 and not args.long_mode:
        raise BudgetError(f"table range {lo}..{hi} needs --long")
    jobs = [(k, not args.no_check) for k in range(lo, hi + 1)]
    if args.threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_table_row, jobs, chunksize=8))
    else:
        rows = [_table_row(j) for j in jobs]
    rows.sort(key=lambda r: r[0])
    mismatches = [r for r in rows if r[3] is not None and r[3] != r[1]]
    lines = ["k,N,source"]
    lines += [f"{k},{n},{source}" for k, n, source, _ in rows]
    text = "\n".join(lines) + "\n"
    if mismatches:
        detail = ", ".join(f"k={k}: closed={n}, search={s}" for k, n, _, s in mismatches)
        print(f"verification failed: table mismatch: {detail}", file=sys.stderr)
        return text, 2
    return text, 0


def _run_lp_gamma(args: argparse.Namespace) -> tuple[str, int]:
    if args.ell_max is not None:
        return lp.density_table_csv(args.ell_max, method=args.method), 0
    if args.ell < 1:
        raise _UsageError(f"lp-gamma needs --l >= 1, got --l {args.ell}")
    g = lp.gamma(args.ell, method=args.method).gamma
    return f"{g.numerator}/{g.denominator} ({lp.format_round4(g)})\n", 0


def _run_certify_dual(args: argparse.Namespace) -> tuple[str, int]:
    ell = args.ell
    if ell < 1:
        raise _UsageError("certify-dual needs --l >= 1")
    if args.perturbed and ell < 4:
        raise _UsageError(f"certify-dual --perturbed needs --l >= 4, got --l {ell}")
    # both constructors verify the matrix and its exact value
    cert = lp.perturbed_dual_matrix(ell) if args.perturbed else lp.dual_matrix(ell)
    value = cert.value
    if args.json:
        payload = {
            "ell": ell,
            "perturbed": args.perturbed,
            "matrix": [list(row) for row in cert.matrix],
            "value_num": value.numerator,
            "value_den": value.denominator,
            "feasible": True,
        }
        return json.dumps(payload, sort_keys=True) + "\n", 0
    lines = [" ".join(str(v) for v in row) for row in cert.matrix]
    lines.append(f"feasible, value = {value.numerator}/{value.denominator}"
                 f" ({lp.format_round4(value)})")
    return "\n".join(lines) + "\n", 0


def _run_verify_height(args: argparse.Namespace) -> tuple[str, int]:
    if args.k is not None and args.h is not None:
        if not 2 <= args.h <= args.k:
            raise _UsageError(
                f"verify-height needs 2 <= --h <= --k, got --k {args.k} --h {args.h}"
            )
        verdicts = [verify_height(args.k, args.h)]
    elif args.k_from is not None and args.k_to is not None:
        if args.k_from < 0:
            raise _UsageError(
                f"verify-height needs --from >= 0, got --from {args.k_from}"
            )
        if args.k_to - args.k_from > 5000 and not args.long_mode:
            raise BudgetError("verify-height sweep that large needs --long")
        verdicts = sweep(args.k_from, args.k_to, args.threads)
    else:
        raise _UsageError("verify-height needs --k/--h or --from/--to")
    rows = [v.to_json_dict() for v in verdicts]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    failed = [r for r in rows if not r["verified"]]
    if failed:
        print(f"{len(failed)} verdicts not verified; first: "
              f"k={failed[0]['k']}, h={failed[0]['h']}", file=sys.stderr)
        return text, 2
    return text, 0


def _run_bounds(args: argparse.Namespace) -> tuple[str, int]:
    suites = {
        "sum210": bounds_mod.check_sum210,
        "threshold-3225": lambda: bounds_mod.check_threshold_3225(120),
        "threshold-1892": lambda: bounds_mod.check_threshold_1892(66),
        "size-bound": lambda: bounds_mod.check_size_bound(40),
        "density-threshold": bounds_mod.check_density_threshold,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    reports = [suites[name]() for name in names]
    if args.json:
        text = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                       for r in reports)
    else:
        text = "".join(
            f"{r.name}: {'holds' if r.holds else 'FAILED'}"
            f" over {r.range}, min margin {r.margin}\n"
            for r in reports)
    bad = [r.name for r in reports if not r.holds]
    if bad:
        print(f"bound checks failed: {', '.join(bad)}", file=sys.stderr)
        return text, 2
    return text, 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cache_dir = args.cache_dir or os.environ.get("TORUSK_CACHE_DIR")
        use_cache = cache_dir is not None and args.command in _GAMMA_COMMANDS
        if use_cache:
            _load_gamma_cache(cache_dir)
        text, code = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    if use_cache:
        _save_gamma_cache(cache_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
