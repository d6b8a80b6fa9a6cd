"""Print the four k+6 record sets row by row and re-verify them.

    python scripts/show_extremal.py
"""

import sys
from collections import defaultdict
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torusk import lattice
from torusk.closedform import EXTREMAL_K, construct_extremal
from torusk.search import max_size


def main() -> int:
    for k in EXTREMAL_K:
        q = construct_extremal(k)
        problem = lattice.check_k_nice(q.points, k)
        if problem is not None:
            print(f"k = {k}: the k + 6 set is not k-nice: {problem}", file=sys.stderr)
            return 1
        p = isqrt(k + 1)
        print(f"k = {k} = {p}^2 - 1: {len(q.points)} = k + 6 points")
        rows = defaultdict(list)
        for m, n in sorted(q.points):
            rows[n].append(m)
        for n in sorted(rows):
            xs = rows[n]
            print(f"  row {n}: {len(xs):3d} points, x in [{xs[0]}, {xs[-1]}]")
        found = max_size(k)
        if found.max_size != k + 6:
            print(f"k = {k}: search finds N({k}) = {found.max_size}, not k + 6",
                  file=sys.stderr)
            return 1
        print(f"  search agrees: N({k}) = {found.max_size}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
