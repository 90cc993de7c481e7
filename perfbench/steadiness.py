"""Steadiness mode: repeat benchmark runs and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workloads ablation,link \\
        --seeds 1-10 [--trace 0] [--json OUT]

Runs ``run.py`` once per (workload, seed), one run at a time and for
``run_seconds`` from ``BENCHMARK.json``, and prints per workload and
metric the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and IQR / median.
With ``--trace 0`` each end-to-end metric is also compared with its
bound in ``BENCHMARK.json``: a metric whose spread exceeds the bound
cannot tell a regression from noise, and the benchmark aims for
spreads below a third of the bound.  ``setup_s`` is exempt from the
spread test, as the benchmark contract allows.

Each run's gate compares every ``nmse_db.<variant>`` with its stored
reference at that seed, with a tolerance wide enough for roundoff
noise.  Over many seeds that noise averages out, so the summary also
gives each variant's mean change from the reference: the figure to hold
to "within 0.5 dB".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import run_dir
from summary import parse_seeds, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def accuracy_deltas(workload: str, seeds, trace: int) -> dict:
    """``nmse_db.<variant>`` -> its change from the stored reference at
    each seed that has one, read from the runs' ``detail.json``."""
    deltas = {}
    for seed in seeds:
        with open(os.path.join(run_dir(workload, seed, trace), "detail.json")) as fh:
            detail = json.load(fh)
        for name, ref in (detail["nmse_db_reference"] or {}).items():
            deltas.setdefault(name, []).append(detail["variant_metrics"][name]["value"] - ref)
    return deltas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat benchmark runs and report spreads")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: wall {result['wall_s']:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            rows[name] = spread(r["metrics"][name]["value"] for r in runs)
            rows[name]["unit"] = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name) if args.trace == 0 else None
            rows[name]["bound"] = bound
            if bound is not None and name != "setup_s":
                worst = max(worst, rows[name]["iqr_over_median"] / bound)
        deltas = accuracy_deltas(workload, [r["seed"] for r in runs], args.trace)
        summary[workload] = {"runs": runs, "metrics": rows, "nmse_db_deltas": deltas}
        print(f"\n{workload}: {len(runs)} runs, max wall {max(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"  {name:<34} {row['median']:>12.6g} {row['q1']:>12.6g} {row['q3']:>12.6g}"
                  f" {row['iqr_over_median']:>8.3f} {bound:>6}  {row['unit']}")
        for name, values in deltas.items():
            print(f"  {name:<34} change from reference: mean {statistics.fmean(values):+.3f} dB,"
                  f" worst {max(values):+.3f} dB over {len(values)} seeds")
        print(flush=True)
    if args.trace == 0:
        print(f"largest spread / bound (setup_s exempt): {worst:.2f}"
              " (aim: below 0.33; above 1.0 the bound is not resolvable)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
