"""torusk benchmark: run one workload, check every answer, print its metrics.

    python3 perfbench/run.py --workload maxima --seed 1 --seconds 36 --trace 0

Workloads (see RATIONALE.md): maxima, gamma, certify.  With --trace 0 the
workload's item list runs untraced in rounds, each in a fresh interpreter
(perfbench/worker.py): round after round while another still fits in
--seconds, and never fewer than MIN_ROUNDS.  Every timing is scaled to
the host's reference speed by calibration kernels run around it
(calibrate.py).  wall_s is the median over rounds of the summed item
times; item_p50_s is the median over items of each item's median time
across rounds.  Set-up is timed in every round, plus set-up-only
interpreters up to SETUP_SAMPLES, and reported as a median.  With --trace
1 one untraced and one traced round run, and the per-layer metrics come
from the traced one.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  A full record (environment, per-round figures, item
times) goes to perfbench/results/, traced spans next to it.  Exit code 0
when every item passed its check, 1 when any item failed, 2 when a round
could not run at all or the metrics differ from those BENCHMARK.json
declares (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
DEADLINE_S = 170  # keeps a whole run under 180 s


class RoundError(Exception):
    """A worker process crashed, failed to import or overran the deadline."""


def spawn(workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None):
    """Run one worker round; returns its report plus setup_s and round_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    kernel = calibrate.kernel_times(calibrate.SAMPLES)
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{mode} round overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise RoundError(f"{mode} round exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["t_first"] - t_spawn
    slowdown = calibrate.slowdown(kernel + report["setup_kernel"])
    report["setup_s"] = report["setup_raw_s"] / slowdown
    report["round_s"] = perf_counter() - t_spawn
    return report


def item_seconds(rnd: dict, scaled: bool = True) -> list[float]:
    """A round's item times, scaled to reference speed unless scaled=False."""
    return [t / slow if scaled else t for _, t, slow, _ in rnd["items"]]


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Untraced rounds and set-up samples -> (rounds, end-to-end metrics)."""
    start = perf_counter()
    rounds = [spawn(workload, seed, "run", deadline)]
    while (
        len(rounds) < MIN_ROUNDS
        or perf_counter() - start + rounds[-1]["round_s"] <= seconds
    ):
        rounds.append(spawn(workload, seed, "run", deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
    per_round = [item_seconds(r) for r in rounds]
    metrics = {
        "wall_s": statistics.median(sum(ts) for ts in per_round),
        "item_p50_s": statistics.median(statistics.median(ts) for ts in zip(*per_round)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return rounds, metrics


def trace(workload: str, seed: int, deadline: float, spans: Path):
    """One untraced and one traced round -> (rounds, per-layer metrics)."""
    base = spawn(workload, seed, "run", deadline)
    traced = spawn(workload, seed, "trace", deadline, spans)
    metrics = dict(traced["layer"])
    metrics["trace.overhead_s"] = sum(item_seconds(traced)) - sum(item_seconds(base))
    metrics["src.lines"] = src_lines()
    return [base, traced], metrics


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "torusk").rglob("*.py"))
    )


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src.lines": src_lines(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = declared_units(bool(args.trace))
    try:
        if args.trace:
            rounds, values = trace(args.workload, args.seed, deadline, RESULTS / f"{stem}.spans.jsonl")
        else:
            rounds, values = measure(args.workload, args.seed, args.seconds, deadline)
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(len(r["items"]) for r in rounds)
    errors = [(iid, err) for r in rounds for iid, _, _, err in r["items"] if err is not None]
    for iid, err in errors:
        print(f"FAILED {iid}: {err}")
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0]['items'])} items")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_frac = {len(errors) / attempted:.6g} ({len(errors)} of {attempted})")
    print("environment " + json.dumps(env))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": values,
        "failed_frac": len(errors) / attempted,
        "unscaled_wall_s": statistics.median(sum(item_seconds(r, False)) for r in rounds),
        "rounds": [{k: v for k, v in r.items() if k != "layer"} for r in rounds],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
