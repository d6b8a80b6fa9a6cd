"""Command line front end.

Subcommands map one-to-one onto the library modules: compute (full
per-height pipeline), oracle (brute force), table (range sweep with
closed-form reconciliation), lp-gamma, certify-dual, verify-height and
bounds.  Exit codes: 0 ok, 1 usage, 2 a verification failed, 3 a size
or time budget was exceeded.  Output is deterministic byte-for-byte for
a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BudgetError, VerificationError
from . import bounds as bounds_mod
from . import lp
from .closedform import pattern_or_table
from .heights import map_jobs, sweep, verify_height
from .oracle import brute_force_max
from .search import compute_with_witness, max_size

CERTIFY_BUDGET = 2000  # largest certify-dual --l without --long
# largest table --to searched without --long: the top of the range the tests
# re-derive by search (k = 1000 alone takes minutes)
TABLE_CHECK_BUDGET = 400


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this CLI reserves 2 for verification
    # failures, so usage problems surface as exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function; say what a plain int flag says
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# flags that more than one subcommand reads; each goes only on the
# subcommands that read it, and only after the subcommand name, so a flag
# given before the name is a usage error rather than silently overwritten
_SHARED_FLAGS = {
    "--threads": dict(type=positive_int, default=1),
    "--long": dict(action="store_true", dest="long_mode",
                   help="allow full-scale sweeps (hours)"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="torusk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, handler, flags: tuple[str, ...] = (), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add_parser("compute", _run_compute,
                   help="maximum k-nice set size via the search pipeline")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--h", type=int, default=None, help="restrict to one height")
    p.add_argument("--baseline", type=positive_int, default=None,
                   help="initial lower bound N for a single-height run")
    p.add_argument("--witness", action="store_true", help="include a witness set")
    p.add_argument("--json", action="store_true")

    p = add_parser("oracle", _run_oracle, help="brute-force maximum for tiny k")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--json", action="store_true")

    p = add_parser("table", _run_table, ("--threads", "--long"),
                   help="k range sweep, closed form vs search")
    p.add_argument("--from", dest="k_from", type=positive_int, required=True)
    p.add_argument("--to", dest="k_to", type=int, required=True)
    p.add_argument("--no-check", action="store_true",
                   help="emit closed-form values only, skip the search cross-check")

    p = add_parser("lp-gamma", _run_lp_gamma, help="exact LP optimum gamma_ell")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--l", dest="ell", type=positive_int, default=None)
    which.add_argument("--lmax", dest="ell_max", type=positive_int, default=None,
                       help="emit a csv table for ell = 1..lmax")

    p = add_parser("certify-dual", _run_certify_dual, ("--long",),
                   help="emit and verify a dual certificate matrix")
    p.add_argument("--l", dest="ell", type=positive_int, required=True)
    p.add_argument("--perturbed", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add_parser("verify-height", _run_verify_height, ("--threads", "--long"),
                   help="height reduction verdicts")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--from", dest="k_from", type=int, default=None)
    p.add_argument("--to", dest="k_to", type=int, default=None)

    p = add_parser("bounds", _run_bounds, help="inequality suite reports")
    p.add_argument("--suite", choices=("sum210", "threshold-3225", "threshold-1892", "size-bound",
                                       "density-threshold", "all"), default="all")
    p.add_argument("--json", action="store_true")
    return parser


def _run_compute(args: argparse.Namespace) -> tuple[str, int]:
    k = args.k
    if args.baseline is not None and args.h is None:
        raise _UsageError("compute --baseline needs --h")
    if args.witness and not args.json and args.h is None:
        # the text output is the value alone, so the witness would be dropped
        raise _UsageError("compute --witness needs --json")
    if args.h is not None:
        baseline = args.baseline if args.baseline is not None else 1
        if not 2 <= args.h <= k:
            raise _UsageError(f"compute needs 2 <= --h <= --k, got --h {args.h}")
        value, wit = compute_with_witness(k, args.h, baseline)
        out = {"k": k, "h": args.h, "baseline": baseline, "value": value}
        if args.witness:
            # null: the stratum stays at or below the baseline, which is value
            out["witness"] = None if wit is None else [[m, n] for (m, n) in wit.points]
        return json.dumps(out, sort_keys=True) + "\n", 0
    payload = max_size(k).to_json_dict()
    if not args.witness:
        del payload["witness"]
    if args.json:
        return json.dumps(payload, sort_keys=True) + "\n", 0
    return f"N({k}) = {payload['max_size']}\n", 0


def _run_oracle(args: argparse.Namespace) -> tuple[str, int]:
    k = args.k
    outcome = brute_force_max(k)
    if args.json:
        return json.dumps(outcome.to_json_dict(), sort_keys=True) + "\n", 0
    return f"N({k}) = {outcome.max_size}\n", 0


def _table_row(args: tuple[int, bool]) -> tuple[int, int, str, int | None]:
    k, check = args
    pv = pattern_or_table(k)
    searched = max_size(k).max_size if check else None
    return k, pv.value, pv.source, searched


def _run_table(args: argparse.Namespace) -> tuple[str, int]:
    lo, hi = args.k_from, args.k_to
    if hi < lo:
        raise _UsageError(f"table needs --from <= --to, got --from {lo} --to {hi}")
    if hi - lo > 2000 and not args.long_mode:
        raise BudgetError(f"table range {lo}..{hi} needs --long")
    if hi > TABLE_CHECK_BUDGET and not (args.no_check or args.long_mode):
        raise BudgetError(
            f"table --to {hi} searches past k = {TABLE_CHECK_BUDGET}; "
            "pass --long or --no-check"
        )
    jobs = [(k, not args.no_check) for k in range(lo, hi + 1)]
    rows = map_jobs(_table_row, jobs, args.threads, chunksize=8)
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
        return lp.density_table_csv(args.ell_max), 0
    g = lp.gamma(args.ell).gamma
    return f"{g.numerator}/{g.denominator} ({lp.format_round4(g)})\n", 0


def _run_certify_dual(args: argparse.Namespace) -> tuple[str, int]:
    ell = args.ell
    if args.perturbed and ell < 4:
        raise _UsageError(f"certify-dual --perturbed needs --l >= 4, got --l {ell}")
    # memory grows with ell^2 (one byte per entry): at the budget the process
    # peaks at about 48 MB of RSS (49 MB with --json, which makes each row a
    # list only while it writes it; Python 3.11, x86-64)
    if ell > CERTIFY_BUDGET and not args.long_mode:
        raise BudgetError(f"certify-dual --l {ell} exceeds {CERTIFY_BUDGET}; pass --long")
    # the constructor verifies the matrix and checks its value, which is kept
    cert = (lp.perturbed_dual_matrix if args.perturbed else lp.dual_matrix)(ell)
    value = cert.value
    if args.json:
        payload = {
            "ell": ell,
            "perturbed": args.perturbed,
            "matrix": cert.matrix,
            "value_num": value.numerator,
            "value_den": value.denominator,
            "feasible": True,
        }
        return json.dumps(payload, sort_keys=True, default=list) + "\n", 0
    lines = [" ".join(map(str, row)) for row in cert.matrix]
    lines.append(f"feasible, value = {value.numerator}/{value.denominator}"
                 f" ({lp.format_round4(value)})")
    return "\n".join(lines) + "\n", 0


def _run_verify_height(args: argparse.Namespace) -> tuple[str, int]:
    single = args.k is not None or args.h is not None
    if single and (args.k_from is not None or args.k_to is not None):
        raise _UsageError("verify-height takes --k/--h or --from/--to, not both")
    if args.k is not None and args.h is not None:
        if not 2 <= args.h <= args.k:
            raise _UsageError(
                f"verify-height needs 2 <= --h <= --k, got --k {args.k} --h {args.h}"
            )
        verdicts = [verify_height(args.k, args.h)]
    elif args.k_from is not None and args.k_to is not None:
        if not 0 <= args.k_from <= args.k_to:
            raise _UsageError(
                "verify-height needs 0 <= --from <= --to, "
                f"got --from {args.k_from} --to {args.k_to}"
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
        "threshold-3225": bounds_mod.check_threshold_3225,
        "threshold-1892": bounds_mod.check_threshold_1892,
        "size-bound": bounds_mod.check_size_bound,
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
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
