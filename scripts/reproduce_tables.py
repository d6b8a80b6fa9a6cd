"""Regenerate the result tables: density constants and exact maxima.

Builds both tables, then writes density.csv and maxima.csv into --outdir
(default out/).  The maxima sweep cross-checks the search against the
closed form for every k, and a mismatch exits with code 1 before anything
is written.  --kmax must be >= 3 and --lmax in 1..256 (the LP size budget);
any other value is a usage error (exit 2) and nothing is written.

    python scripts/reproduce_tables.py --lmax 20 --kmax 200
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torusk.closedform import pattern_or_table
from torusk.lp import LP_SIZE_BUDGET, density_table_csv
from torusk.search import max_size


def int_in(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi] (no upper end when hi is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            upper = "" if hi is None else f" and <= {hi}"
            raise argparse.ArgumentTypeError(f"must be >= {lo}{upper}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lmax", type=int_in(1, LP_SIZE_BUDGET), default=20)
    ap.add_argument("--kmax", type=int_in(3), default=200)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args(argv)

    t0 = time.time()
    density = density_table_csv(args.lmax)
    print(f"density.csv: ell = 1..{args.lmax} ({time.time() - t0:.1f}s)")

    t0 = time.time()
    lines = ["k,N,source,height_of_witness"]
    for k in range(3, args.kmax + 1):
        out = max_size(k)
        pv = pattern_or_table(k)
        if out.max_size != pv.value:
            print(f"MISMATCH at k={k}: search {out.max_size}, closed {pv.value}",
                  file=sys.stderr)
            return 1
        hw = max(n for _, n in out.witness.points)
        lines.append(f"{k},{out.max_size},{pv.source},{hw}")
        if k % 50 == 0:
            print(f"  ...k = {k} ({time.time() - t0:.1f}s)")
    print(f"maxima.csv: k = 3..{args.kmax}, all match ({time.time() - t0:.1f}s)")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "density.csv").write_text(density)
    (outdir / "maxima.csv").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
