"""One round of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is "setup" (imports and input generation only), "run" (every item,
untraced) or "trace" (every item, with the per-layer wrappers installed;
the spans go to SPANS_FILE).  Prints one JSON line.  t_first is
time.perf_counter() just before the first item; on Linux that clock is
system-wide, so run.py subtracts its own reading taken before it started
this process to get the set-up time; setup_kernel holds calibration
kernel times (calibrate.py) taken right after set-up.  The host's speed
is sampled around and during each item; an item's record is [id, seconds
without the sampling, host slowdown over the item, error or null].

A fresh process per round matters: lp keeps a process-global gamma memo
with no public reset, so a second round in one process would time memo
hits.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    import torusk

    if not Path(torusk.__file__).resolve().is_relative_to(SRC):
        print(f"torusk imported from {torusk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import workloads

    run = workloads.prepare(workload)
    items = workloads.items(workload, seed)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        for target in tracer.install():
            print(f"trace target missing, reads 0: {target}", file=sys.stderr)
    t_first = perf_counter()
    setup_kernel = calibrate.kernel_times(calibrate.SAMPLES)
    if mode == "setup":
        print(json.dumps({"t_first": t_first, "setup_kernel": setup_kernel}))
        return 0

    records, outputs = [], []
    sampler = calibrate.Sampler()
    for item in items:
        iid = workloads.item_id(workload, item)
        kernel = calibrate.kernel_times(calibrate.SAMPLES)
        with sampler:
            start = perf_counter()
            try:
                out = tracer.item_span(iid, run, item) if tracer else run(item)
                error = None
            except Exception as exc:  # a failed item is counted, the round goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        kernel += sampler.times + calibrate.kernel_times(calibrate.SAMPLES)
        records.append([iid, elapsed - sampler.spent, calibrate.slowdown(kernel), error])
        outputs.append(out)

    report = {
        "t_first": t_first,
        "setup_kernel": setup_kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": records,
    }
    if tracer is not None:
        layer = tracer.layer_metrics()
        layer["lp.guided_ok_ratio"] = _guided_ok_ratio(workload, items, outputs)
        report["layer"] = layer
        tracer.write_spans(argv[4])
    print(json.dumps(report))
    return 0


def _guided_ok_ratio(workload: str, items: list, methods: list) -> float:
    """Share of ells above the simplex cut-over that gamma returned with
    method "guided"; the rest fell back to the exact simplex."""
    if workload != "gamma":
        return 0.0
    cutover = getattr(sys.modules["torusk.lp"], "SIMPLEX_CUTOVER", 0)
    eligible = [m for ell, m in zip(items, methods) if ell > cutover]
    return sum(m == "guided" for m in eligible) / len(eligible) if eligible else 0.0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
