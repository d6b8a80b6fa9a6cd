"""Seeded item lists and exact per-item checks for the three workloads.

Each workload is a list of items drawn from the seed.  prepare() imports
what the workload calls (this is part of set-up) and returns a function
that runs one item through the public torusk API, checks the answer
exactly, and raises CheckFailed on a wrong one.  Expected values in
expected.json were recorded from the program at the commit that added
this benchmark.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("maxima", "gamma", "certify")

# maxima: every eighth k of 96..155 (96, 104, ..., 152: the record holder
# 120, the tabulated exception 144, k mod 6 in {0, 2, 4}) in seeded order.
# Per-k search costs are so uneven that the median item of a seed-drawn
# sample moves with the sample (the four every-fourth-k samples of 96..155
# have median items up to a third apart), so the seed orders a fixed
# sample.  Eight k keep a round short enough for five or more rounds per
# run, which the median item's noise on a shared host needs.
MAXIMA_KS = tuple(range(96, 156, 8))
# gamma: the exact-simplex ells 1..16 plus one ell per band above the
# simplex cut-over (HiGHS-guided path).
GAMMA_TABLE = tuple(range(1, 17))
GAMMA_BANDS = ((25, 32), (33, 40), (41, 48))
CERT_LAST = 120

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


class CheckFailed(Exception):
    """An item's answer differs from the recorded or certified value."""


def items(workload: str, seed: int) -> list:
    """The workload's item list for this seed, in run order."""
    rng = random.Random(seed)
    if workload == "maxima":
        order = list(MAXIMA_KS)
        rng.shuffle(order)
        return order
    if workload == "gamma":
        return list(GAMMA_TABLE) + [rng.randint(lo, hi) for lo, hi in GAMMA_BANDS]
    if workload == "certify":
        order = [("dual", ell) for ell in range(1, CERT_LAST + 1)]
        order += [("perturbed", ell) for ell in range(4, CERT_LAST + 1)]
        rng.shuffle(order)
        return order
    raise ValueError(f"unknown workload {workload!r}")


def item_id(workload: str, item) -> str:
    if workload == "maxima":
        return f"k={item}"
    if workload == "gamma":
        return f"ell={item}"
    return f"{item[0]}:ell={item[1]}"


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def prepare(workload: str):
    """Import what the workload runs and return its run-and-check function.
    The function returns the LP method for gamma items and None otherwise."""
    if workload == "maxima":
        return _prepare_maxima()
    if workload == "gamma":
        return _prepare_gamma()
    if workload == "certify":
        return _prepare_certify()
    raise ValueError(f"unknown workload {workload!r}")


def _prepare_maxima():
    from torusk import closedform, lattice, search

    expected = {int(k): n for k, n in _expected()["max_size"].items()}

    def run(k: int) -> None:
        out = search.max_size(k)
        want = expected[k]
        if out.max_size != want:
            raise CheckFailed(f"N({k}) = {out.max_size}, recorded {want}")
        if closedform.pattern_or_table(k).value != want:
            raise CheckFailed(f"closed form disagrees with N({k}) = {want}")
        if out.witness is None or len(out.witness) != want:
            raise CheckFailed(f"witness for k = {k} does not have {want} points")
        problem = lattice.check_k_nice(out.witness.points, k)
        if problem is not None:
            raise CheckFailed(f"witness for k = {k} is not k-nice: {problem}")

    return run


def _prepare_gamma():
    # lp imports these inside its first guided solve; set-up pays for them
    # here so that the first guided item is not charged with the import.
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
    from torusk import lp

    expected = {int(ell): Fraction(g) for ell, g in _expected()["gamma"].items()}

    def run(ell: int) -> str:
        gv = lp.gamma(ell)
        lp.verify_gamma(gv)
        if gv.ell != ell or gv.gamma != expected[ell]:
            raise CheckFailed(f"gamma({ell}) = {gv.gamma}, recorded {expected[ell]}")
        if gv.gamma > lp.gamma_upper_bound(ell):
            raise CheckFailed(f"gamma({ell}) exceeds its certificate upper bound")
        return gv.method

    return run


def _prepare_certify():
    from torusk import lp

    def run(item) -> None:
        kind, ell = item
        if kind == "dual":
            cert, want = lp.dual_matrix(ell), Fraction(1)
        else:
            cert, want = lp.perturbed_dual_matrix(ell), lp.gamma_upper_bound(ell)
        cert.verify()
        if cert.ell != ell or cert.value != want:
            raise CheckFailed(f"{kind} certificate for ell = {ell} has value {cert.value}")

    return run
