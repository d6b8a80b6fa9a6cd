"""Per-layer tracing installed from outside the program.

install() replaces public functions and methods of torusk (and scipy's
linprog) with wrappers that record a span per call: name, start, end,
parent span and item id.  The two hot IntervalTables methods, called
millions of times per run, get call counters instead of spans.  Spans are
kept in memory; layer_metrics() folds them into the per-layer figures and
write_spans() writes them out at the end.  Span times are raw seconds and
include the host-speed sampler's ticks (calibrate.py), about 1% of a run.

Targets are looked up by module attribute, so a call made through a name
bound with "from x import y" is caught only where that name is patched:
search binds verify_height and the closed forms, lp binds the simplex
entry points.  Targets in modules the workload never imported are left
alone, and a target missing from this version of the program is reported
and skipped; either way its metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute path)
SPAN_TARGETS = (
    ("search.compute", "torusk.search", "compute_with_witness"),
    ("heights.verify_height", "torusk.search", "verify_height"),
    ("closedform", "torusk.search", "best_low_height_set"),
    ("closedform", "torusk.search", "height_le3_max"),
    ("lattice.check_k_nice", "torusk.lattice", "check_k_nice"),
    ("simplex.solve_max", "torusk.lp", "solve_max"),
    ("simplex.solve_rational_system", "torusk.lp", "solve_rational_system"),
    ("lp.highs", "scipy.optimize", "linprog"),
    ("lp.verify_gamma", "torusk.lp", "verify_gamma"),
    ("lp.check_primal", "torusk.lp", "check_primal"),
    ("lp.check_dual", "torusk.lp", "check_dual"),
    ("lp.dual_matrix", "torusk.lp", "dual_matrix"),
    ("lp.perturbed_dual_matrix", "torusk.lp", "perturbed_dual_matrix"),
    ("lp.cert_verify", "torusk.lp", "DualCertificate.verify"),
    ("lp.cert_value", "torusk.lp", "DualCertificate.value"),
    ("numtheory.totient", "torusk.numtheory", "totient"),
)
COUNT_TARGETS = (
    ("search.window_max", "torusk.search", "IntervalTables.window_max"),
    ("search.count", "torusk.search", "IntervalTables.count"),
)
COUNT_NAMES = frozenset(name for name, _, _ in COUNT_TARGETS)


def _observe(name: str, result, counters: Counter) -> None:
    """Counts read off a traced call's return value."""
    if name == "search.compute":
        counters["search.compute.improved"] += result[1] is not None
    elif name == "heights.verify_height":
        counters["heights.verified"] += bool(result.verified)
    elif name == "simplex.solve_max":
        counters["simplex.pivots"] += result.pivots


class Tracer:
    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1, item id)
        self.spans: list = []
        self.counters: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []
        self._count_cells: dict[str, list[int]] = {}

    def _span_wrapper(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)
            _observe(name, result, counters)
            return result

        return traced

    @staticmethod
    def _count_wrapper(fn, cell: list):
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def item_span(self, item: str, fn, arg):
        """Run fn(arg) as the root span of one item."""
        self.item = item
        return self._span_wrapper("item", fn)(arg)

    def install(self) -> list[str]:
        """Patch every target in an imported module; return the missing ones."""
        missing = []
        for name, module, path in SPAN_TARGETS + COUNT_TARGETS:
            if module not in sys.modules:
                continue
            owner, attr = _resolve(module, path)
            if owner is None:
                missing.append(f"{module}.{path}")
                continue
            original = inspect.getattr_static(owner, attr)
            if name in COUNT_NAMES:
                cell = self._count_cells.setdefault(name, [0])
                patched = self._count_wrapper(original, cell)
            elif isinstance(original, property):
                patched = property(self._span_wrapper(name, original.fget))
            else:
                patched = self._span_wrapper(name, original)
            setattr(owner, attr, patched)
        return missing

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        c = Counter(self.counters)
        for name, cell in self._count_cells.items():
            c[name] = cell[0]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "search.compute.calls": calls["search.compute"],
            "search.compute.self_s": self_s["search.compute"],
            "search.window_max.calls": c["search.window_max"],
            "search.count.calls": c["search.count"],
            "search.improved_ratio": ratio(
                c["search.compute.improved"], calls["search.compute"]
            ),
            "heights.verify_height.calls": calls["heights.verify_height"],
            "heights.verify_height.s": total["heights.verify_height"],
            "heights.skipped_ratio": ratio(
                c["heights.verified"], calls["heights.verify_height"]
            ),
            "closedform.s": total["closedform"],
            "lattice.check_k_nice.calls": calls["lattice.check_k_nice"],
            "lattice.check_k_nice.s": total["lattice.check_k_nice"],
            "simplex.solve_max.calls": calls["simplex.solve_max"],
            "simplex.solve_max.s": total["simplex.solve_max"],
            "simplex.pivots": c["simplex.pivots"],
            "simplex.solve_rational_system.calls": calls["simplex.solve_rational_system"],
            "simplex.solve_rational_system.s": total["simplex.solve_rational_system"],
            "lp.highs.calls": calls["lp.highs"],
            "lp.highs.s": total["lp.highs"],
            "lp.verify_gamma.calls": calls["lp.verify_gamma"],
            "lp.verify_gamma.s": total["lp.verify_gamma"],
            "lp.check_primal.s": total["lp.check_primal"],
            "lp.check_dual.s": total["lp.check_dual"],
            "lp.dual_matrix.s": total["lp.dual_matrix"],
            "lp.perturbed_dual_matrix.s": total["lp.perturbed_dual_matrix"],
            "lp.cert_verify.calls": calls["lp.cert_verify"],
            "lp.cert_verify.s": total["lp.cert_verify"],
            "lp.cert_value.calls": calls["lp.cert_value"],
            "lp.cert_value.s": total["lp.cert_value"],
            "numtheory.totient.calls": calls["numtheory.totient"],
            "numtheory.totient.s": total["numtheory.totient"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def _resolve(module: str, path: str):
    """(owner, attribute) for module + dotted path, or (None, None)."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None, None
    return owner, attr
