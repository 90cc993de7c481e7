"""Sweep benchmark for ``ramc``: end-to-end metrics or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload ablation --seed 0 --seconds 30 --trace 0

The run sets up the workload (``workloads.py``), then calls
``ramc.harness.run_sweep`` with ``threads=1`` over the workload grid,
at least once and again while the next sweep still fits in
``--seconds``.  A run therefore measures at least one whole sweep, even
when that takes longer than ``--seconds``.  Every sweep of a run uses
the same seed, so all of them must return the same records.

``--trace 0`` reports the end-to-end metrics from untraced sweeps:
``setup_s`` (median CPU time of fresh-interpreter set-ups) and
``sweep_cpu_s`` (median CPU time of one sweep).  Both are the CPU
seconds of the thread that does the work (``time.thread_time``; the
sweep runs in the calling thread), so time the machine gives to other
work while the benchmark waits for a CPU is left out: on a 2-vCPU VM
with two busy processes beside it, a sweep took 30% more wall time but
no more CPU time.  The CPU time of the whole process is no steadier: it
adds what OpenBLAS's worker thread spends spinning between calls, which
grows when the machine is idle.  The wall times (``sweep_s``,
``record_ms`` from ``MetricRecord.runtime_ms``) and the process CPU
time are in the detail block.  ``--trace 1`` runs an untraced and a
traced sweep per round and reports per-layer metrics from the spans of
the traced ones (see ``spans.py``).  The names and units of both metric
lists come from ``BENCHMARK.json``.

The correctness gate checks the records, their repeats and their CSV
round trip, and guards accuracy: at a seed with a stored reference in
``baseline.json`` (written by ``reference.py``), each variant's
``nmse_db`` may be worse than the reference by at most ``NMSE_TOL_DB``.

Both modes print a detail block (environment, per-variant timings with
their tail percentile, the accuracy table and the correctness gate),
write it with the spans and the canonical records CSV under
``perfbench/out/``, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when the correctness gate passes, 1 when it fails and 2 when the
benchmark cannot run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from spans import Target, Tracer, descendants, self_times, write_spans
from summary import tail, validate_metric_name, validate_unit, variant_suffix
from workloads import ROOT, SWEEP_THREADS, WORKLOADS, BenchError, set_up

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# Fresh-interpreter set-ups per --trace 0 run; one more runs first, untimed,
# so that byte-compiling the sources on a fresh checkout is not counted.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# The PARTITION layer metrics must add up to a traced sweep's wall time
# within this.
PARTITION_TOL_S = 1e-6

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_FILE = os.path.join(HERE, "baseline.json")
# The accuracy guard: at a seed with a stored reference, a variant's
# ``nmse_db`` may be worse than the reference by at most this many dB.
# One seed's ``nmse_db`` on ``ablation`` moves by up to 0.35 dB when only
# the BLAS kernels change, and by up to 1.1 dB under a change that is
# better on average (max_iters 500 -> 250, -0.4 dB mean over 6 seeds).
# Finer losses show in the mean change over seeds that steadiness.py
# reports.
NMSE_TOL_DB = 1.5

_CHANNEL = ("channel.sample_realization", "channel.evolve")
_FRONTEND = ("frontend.pilot", "frontend.observe", "frontend.mask", "frontend.coarse")
# Spans that are the sweep's own bookkeeping rather than a layer's work.
_HARNESS_FRAME = ("harness.sweep", "harness.trial")
# Layer metrics that partition a traced sweep's wall time between them.
PARTITION = (
    "completion.solve.busy_s",
    "completion.rank_estimate.busy_s",
    "recovery.phase2.busy_s",
    "recovery.somp.busy_s",
    "channel.busy_s",
    "frontend.pilot.busy_s",
    "frontend.observe.busy_s",
    "frontend.mask.busy_s",
    "frontend.coarse.busy_s",
    "harness.metrics.busy_s",
    "harness.other_s",
)


def run_dir(workload: str, seed: int, trace: int) -> str:
    """Where a run writes its detail, spans and records."""
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")


def trace_targets(harness, channel) -> list[Target]:
    """The calls the traced run times, named ``<layer>.<stage>``.

    ``harness`` imports the stage functions by name, so they are wrapped
    in its namespace; the channel draws go through the module.
    """

    def solve_info(span, result):
        span.info["iterations"] = result.iterations
        span.info["converged"] = bool(result.converged)

    def phase2_info(span, result):
        span.info["atoms"] = len(result[0].support)

    def job_key(args):
        variant, snr_idx, trial = args[1:4]
        return f"{variant}/snr{snr_idx}/trial{trial}"

    return [
        Target(harness, "_run_trial", "harness.trial", job_key=job_key),
        Target(harness, "r1mc_complete", "completion.solve", on_result=solve_info),
        Target(harness, "estimate_rank", "completion.rank_estimate"),
        Target(harness, "estimate_phase2", "recovery.phase2", on_result=phase2_info),
        Target(harness, "somp_baseline", "recovery.somp"),
        Target(channel, "sample_realization", "channel.sample_realization"),
        Target(channel, "evolve", "channel.evolve"),
        Target(harness, "make_pilot_block", "frontend.pilot", starts_step=True),
        Target(harness, "observe", "frontend.observe"),
        Target(harness, "subsample", "frontend.mask"),
        Target(harness, "coarse_channel", "frontend.coarse"),
        Target(harness, "nmse", "harness.nmse"),
        Target(harness, "ber_link", "harness.ber"),
    ]


def sweep_layers(spans, sweep_id: int, selfs: dict) -> dict:
    """Layer metrics of one traced sweep: busy seconds, calls, per-call
    medians and solver counts, plus each busy time as a share of the
    sweep's wall time.  The io and overhead metrics come from elsewhere.

    BENCHMARK.json declares the shares, not the seconds: a layer that a
    workload never calls then reads 0 as a fraction, not a constant time.
    """
    tree = descendants(spans, sweep_id)
    by_name = defaultdict(list)
    for sp in tree:
        by_name[sp.name].append(sp)

    def busy(*names):
        return sum(selfs[sp.id] for name in names for sp in by_name[name])

    def calls(*names):
        return sum(len(by_name[name]) for name in names)

    def ms_p50(name):
        spans_ = by_name[name]
        return statistics.median(sp.duration * 1e3 for sp in spans_) if spans_ else 0.0

    solves = by_name["completion.solve"]
    sweeps = sum(sp.info["iterations"] for sp in solves)
    phase2 = by_name["recovery.phase2"]
    wall = tree[0].duration
    layer_busy = sum(selfs[sp.id] for sp in tree if sp.name not in _HARNESS_FRAME)
    values = {
        "completion.solve.calls": calls("completion.solve"),
        "completion.solve.busy_s": busy("completion.solve"),
        "completion.solve.ms_p50": ms_p50("completion.solve"),
        "completion.sweeps": sweeps,
        "completion.ms_per_sweep": busy("completion.solve") * 1e3 / sweeps if sweeps else 0.0,
        "completion.converged_frac": (
            sum(sp.info["converged"] for sp in solves) / len(solves) if solves else 0.0
        ),
        "completion.rank_estimate.busy_s": busy("completion.rank_estimate"),
        "recovery.phase2.calls": calls("recovery.phase2"),
        "recovery.phase2.busy_s": busy("recovery.phase2"),
        "recovery.phase2.ms_p50": ms_p50("recovery.phase2"),
        "recovery.atoms_mean": (
            statistics.fmean(sp.info["atoms"] for sp in phase2) if phase2 else 0.0
        ),
        "recovery.somp.calls": calls("recovery.somp"),
        "recovery.somp.busy_s": busy("recovery.somp"),
        "channel.calls": calls(*_CHANNEL),
        "channel.busy_s": busy(*_CHANNEL),
        "frontend.pilot.busy_s": busy("frontend.pilot"),
        "frontend.observe.busy_s": busy("frontend.observe"),
        "frontend.mask.busy_s": busy("frontend.mask"),
        "frontend.coarse.busy_s": busy("frontend.coarse"),
        "frontend.calls": calls(*_FRONTEND),
        "harness.ber.busy_s": busy("harness.ber"),
        "harness.metrics.busy_s": busy("harness.nmse", "harness.ber"),
        "harness.other_s": wall - layer_busy,
        "trace.sweep_s": wall,
    }
    for name in PARTITION:
        layer = name[: -len(".busy_s")] if name.endswith(".busy_s") else "harness.other"
        values[f"{layer}.share"] = values[name] / wall
    values["harness.ber.share"] = values["harness.ber.busy_s"] / wall
    return values


def measure_setup(workload: str, seed: int) -> list[dict]:
    """``SETUP_PROBES`` set-ups, each in a fresh interpreter: a list of
    ``{"setup_s": CPU s, "setup_wall_s": wall s}``."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        if i > 0:
            times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def timed_sweep(harness, cfg, variants):
    """One untraced sweep: ``(wall s, CPU s of this thread, CPU s of the
    process, records)``."""
    gc.collect()
    wall, cpu, proc = time.perf_counter(), time.thread_time(), time.process_time()
    records = harness.run_sweep(cfg, variants, threads=SWEEP_THREADS)
    return (time.perf_counter() - wall, time.thread_time() - cpu,
            time.process_time() - proc, records)


def same_fields(a, b) -> bool:
    """Records equal in every field but ``runtime_ms``; NaN equals NaN."""
    for name in a.__dataclass_fields__:
        if name == "runtime_ms":
            continue
        x, y = getattr(a, name), getattr(b, name)
        if x != y and not (isinstance(x, float) and isinstance(y, float)
                           and math.isnan(x) and math.isnan(y)):
            return False
    return True


def check_records(records, cfg, variants, harness) -> list[str]:
    """Problems in one sweep's records that do not need a second sweep."""
    problems = []
    expected = len(variants) * len(cfg.snr_grid_db) * cfg.n_trials * cfg.time_steps
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    coords = {(r.variant, r.snr_db, r.trial, r.t) for r in records}
    if len(coords) != len(records):
        problems.append("duplicate (variant, snr, trial, t) records")
    for r in records:
        where = f"{r.variant}/{r.snr_db}/{r.trial}/{r.t}"
        if r.variant not in variants or r.snr_db not in cfg.snr_grid_db:
            problems.append(f"{where}: record outside the grid")
        elif r.error:
            if not math.isnan(r.nmse):
                problems.append(f"{where}: failed record carries an NMSE")
        elif not (math.isfinite(r.nmse) and r.nmse >= 0.0):
            problems.append(f"{where}: NMSE {r.nmse} not finite and >= 0")
        else:
            db = 10.0 * math.log10(r.nmse) if r.nmse > 0 else -math.inf
            if not math.isclose(r.nmse_db, max(db, harness.NMSE_FLOOR_DB), abs_tol=1e-9):
                problems.append(f"{where}: nmse_db {r.nmse_db} != 10 log10 {r.nmse}")
            if r.recovered != (r.nmse_db <= cfg.recovery_threshold_db):
                problems.append(f"{where}: recovered flag disagrees with NMSE")
            if (r.ber is None) != (cfg.ber_symbols == 0):
                problems.append(f"{where}: BER present iff ber_symbols > 0 violated")
            if r.ber is not None and not 0.0 <= r.ber <= 1.0:
                problems.append(f"{where}: BER {r.ber} outside [0, 1]")
            if r.rank_est < 0 or r.rank_true < 0:
                problems.append(f"{where}: negative rank")
    return problems


def canonical_bytes(harness, records, path) -> bytes:
    harness.write_records(path, records)
    with open(path, "rb") as fh:
        return fh.read()


def openblas_threads():
    """Thread count the bundled OpenBLAS reports, read without changing it."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout, or None when it is not a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "sweep_threads": SWEEP_THREADS,
        "machine": platform.machine(),
    }


def accuracy_table(report, solves) -> list[dict]:
    """Per variant x SNR: median NMSE, recovery, rank accuracy, solves."""
    rows = []
    for row in report.to_rows():
        done = solves.get((row["variant"], row["snr_db"]))
        rows.append({
            "variant": row["variant"],
            "snr_db": row["snr_db"],
            "median_nmse_db": float(row["median_nmse_db"]),
            "recovery": float(row["recovery"]),
            "rank_accuracy": float(row["rank_accuracy"]),
            "solves": None if done is None else done[0],
            "converged": None if done is None else done[1],
        })
    return rows


def nmse_by_variant(report, variants) -> dict:
    """``nmse_db.<variant>`` -> the mean over the SNR grid of the variant's
    per-SNR median NMSE in dB from ``report`` (``summarize_records``), or
    None when every record of the variant failed.
    """
    out = {}
    for variant in variants:
        medians = [m for m in report.median_nmse_db[report.variants.index(variant)]
                   if not math.isnan(m)]
        out[f"nmse_db.{variant_suffix(variant)}"] = (
            statistics.fmean(medians) if medians else None)
    return out


def variant_details(records_by_sweep, nmse, first, variants) -> dict:
    """Per-variant timing (median, tail, n) and accuracy, keyed by metric name."""
    out = {}
    for variant in variants:
        suffix = variant_suffix(variant)
        runtimes = [r.runtime_ms for recs in records_by_sweep for r in recs
                    if r.variant == variant]
        out[f"record_ms.{suffix}"] = {"unit": "ms", **tail(runtimes)}
        out[f"nmse_db.{suffix}"] = {"unit": "dB", "value": nmse[f"nmse_db.{suffix}"]}
    bers = [r.ber for r in first if r.ber is not None]
    if bers:
        out["ber"] = {"unit": "fraction", "value": statistics.fmean(bers)}
    return out


def stored_reference(workload: str, seed: int):
    """The ``nmse_db`` reference of (workload, seed) from ``baseline.json``,
    or None for a seed without one (see ``reference.py``)."""
    with open(BASELINE_FILE) as fh:
        table = json.load(fh)["nmse_db_reference"]
    return table.get(workload, {}).get(str(seed))


def accuracy_problems(nmse: dict, reference: dict) -> list[str]:
    """Variants whose ``nmse_db`` is worse than the reference by more than
    :data:`NMSE_TOL_DB`; a variant with no value at all counts as worse."""
    problems = []
    for name, ref in reference.items():
        got = nmse.get(name)
        if got is None or got > ref + NMSE_TOL_DB:
            problems.append(f"{name} = {got} dB, reference {ref:.4f} dB:"
                            f" worse by more than {NMSE_TOL_DB} dB")
    return problems


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``kind`` list (``end_to_end`` or
    ``per_layer``) in BENCHMARK.json."""
    try:
        with open(BENCHMARK_FILE) as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    except OSError as exc:
        raise BenchError(f"cannot read the metric list: {exc}") from exc


def solve_counts(spans, snr_grid) -> dict:
    """(variant, snr_db) -> (solves, converged) from traced sweep spans."""
    jobs = {sp.id: sp.key for sp in spans if sp.name == "harness.trial"}
    counts = defaultdict(lambda: [0, 0])
    for sp in spans:
        if sp.name == "completion.solve" and sp.parent in jobs:
            variant, snr_part, _ = jobs[sp.parent].split("/")
            cell = counts[(variant, snr_grid[int(snr_part[len("snr"):])])]
            cell[0] += 1
            cell[1] += int(sp.info["converged"])
    return counts


def metric(value, unit):
    return {"value": float(value), "unit": validate_unit(unit)}


def run(args) -> int:
    spec = WORKLOADS[args.workload]
    variants = spec["variants"]
    cfg, _ = set_up(args.workload, args.seed)
    from ramc import channel, harness

    out_dir = run_dir(args.workload, args.seed, args.trace)
    os.makedirs(out_dir, exist_ok=True)
    setup = measure_setup(args.workload, args.seed) if not args.trace else []

    # Measure: whole sweeps (untraced, and with --trace 1 each one followed
    # by a traced one) until the next round would overrun --seconds.
    tracer = Tracer()
    targets = trace_targets(harness, channel)
    untraced, traced, sweep_ids, write_s = [], [], [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        untraced.append(timed_sweep(harness, cfg, variants))
        if args.trace:
            gc.collect()
            with tracer.patched(targets), tracer.span("harness.sweep") as sweep:
                records = harness.run_sweep(cfg, variants, threads=SWEEP_THREADS)
            traced.append((sweep.duration, records))
            sweep_ids.append(sweep.id)
            path = os.path.join(out_dir, f"traced-{len(traced)}.csv")
            with tracer.span("io.write_records") as written:
                harness.write_records(path, records)
            write_s.append(written.duration)
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            break

    # Correctness gate.  Every sweep of the run, traced or not, must write
    # the same canonical CSV.  A run too short for two sweeps still repeats
    # one cell of the grid with the same seed: trial 0 at the first SNR and
    # t=0.  Seeds depend only on (trial, t), so that cell must come back
    # byte-identical when swept on its own.
    problems = []
    first = untraced[0][-1]
    problems += check_records(first, cfg, variants, harness)
    canonical = canonical_bytes(harness, first, os.path.join(out_dir, "records.csv"))
    for i, records in enumerate([r for *_, r in untraced[1:] + traced], start=1):
        if canonical_bytes(harness, records, os.path.join(out_dir, "repeat.csv")) != canonical:
            problems.append(f"sweep {i} records differ from sweep 0 at the same seed")
    repeats = [recs for *_, recs in untraced[1:] + traced]
    if not repeats:
        part = dataclasses.replace(cfg, n_trials=1, time_steps=1, rank_schedule=None,
                                   snr_grid_db=cfg.snr_grid_db[:1])
        again = harness.run_sweep(part, variants, threads=SWEEP_THREADS)
        repeats.append(again)
        expected = [r for r in first
                    if r.trial == 0 and r.t == 0 and r.snr_db == part.snr_grid_db[0]]
        if (canonical_bytes(harness, again, os.path.join(out_dir, "repeat.csv"))
                != canonical_bytes(harness, expected, os.path.join(out_dir, "expected.csv"))):
            problems.append("trial 0, t=0 at the first SNR differs when swept on its own")
    back = harness.read_records(os.path.join(out_dir, "records.csv"))
    if len(back) != len(first) or not all(map(same_fields, back, first)):
        problems.append("read_records(write_records(x)) != x")
    selfs = self_times(tracer.spans)
    layers = [sweep_layers(tracer.spans, sid, selfs) for sid in sweep_ids]
    for layer in layers:
        err = abs(sum(layer[name] for name in PARTITION) - layer["trace.sweep_s"])
        if err > PARTITION_TOL_S:
            problems.append(f"layer metrics miss the traced sweep wall time by {err:.3g} s;"
                            " a traced call is in no layer of PARTITION")

    all_records = [r for recs in [first, *repeats] for r in recs]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r.error)
    sweep_s = statistics.median(s for s, *_ in untraced)
    report = harness.summarize_records(first)
    nmse = nmse_by_variant(report, variants)
    reference = stored_reference(args.workload, args.seed)
    if reference is not None:
        problems += accuracy_problems(nmse, reference)

    detail = {
        "workload": args.workload,
        "variants": list(variants),
        "environment": environment(args.seed),
        "sweeps": {"untraced_s": [s for s, *_ in untraced],
                   "untraced_cpu_s": [c for _, c, *_ in untraced],
                   "untraced_process_cpu_s": [p for _, _, p, _ in untraced],
                   "traced_s": [s for s, _ in traced]},
        "setup_samples": setup,
        "other_times": {
            "sweep_s": {"unit": "s", "value": sweep_s},
            "record_ms": {"unit": "ms", "value": statistics.median(
                statistics.fmean(r.runtime_ms for r in recs) for *_, recs in untraced)},
            "sweep_process_cpu_s": {"unit": "s", "value": statistics.median(
                p for _, _, p, _ in untraced)},
        },
        "failed_frac": failed / attempted,
        "variant_metrics": variant_details(
            [recs for *_, recs in untraced], nmse, first, variants),
        "nmse_db_reference": reference,
        "accuracy": accuracy_table(report, solve_counts(
            descendants(tracer.spans, sweep_ids[0]) if sweep_ids else [], cfg.snr_grid_db)),
        "problems": problems,
    }
    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["io.write_records.busy_s"] = statistics.median(write_s)
        values["trace.overhead_frac"] = (
            statistics.median(s for s, _ in traced) / sweep_s - 1.0)
        detail["layers"] = values
        detail["layer_sum_check"] = [
            {"partition_s": sum(layer[name] for name in PARTITION),
             "traced_sweep_s": layer["trace.sweep_s"]} for layer in layers]
        write_spans(os.path.join(out_dir, "spans.csv"), tracer.spans)
        units = declared_units("per_layer")
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "sweep_cpu_s": statistics.median(c for _, c, *_ in untraced),
        }
        units = declared_units("end_to_end")
    metrics = {validate_metric_name(name): metric(values[name], unit)
               for name, unit in units.items()}
    detail["metrics"] = metrics
    with open(os.path.join(out_dir, "detail.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print_detail(detail)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_detail(detail: dict) -> None:
    print(f"# workload {detail['workload']}: variants {', '.join(detail['variants'])}")
    print("# environment " + json.dumps(detail["environment"]))
    sweeps = detail["sweeps"]
    print(f"# sweeps untraced {[round(s, 3) for s in sweeps['untraced_s']]} s wall,"
          f" {[round(s, 3) for s in sweeps['untraced_cpu_s']]} s thread CPU;"
          f" traced {[round(s, 3) for s in sweeps['traced_s']]}")
    print(f"{'metric':<34} {'value':>12} unit")
    for name, m in detail["metrics"].items():
        print(f"{name:<34} {m['value']:>12.6g} {m['unit']}")
    for name, m in detail["other_times"].items():
        print(f"{name:<34} {m['value']:>12.6g} {m['unit']}")
    print(f"{'failed_frac':<34} {detail['failed_frac']:>12.6g} fraction")
    for name, m in detail["variant_metrics"].items():
        if "p50" in m:
            tail_txt = ("no tail (<10 samples beyond p50)" if m["tail_q"] is None
                        else f"p{m['tail_q']:g} {m['tail']:.6g}")
            print(f"{name:<34} {m['p50']:>12.6g} {m['unit']}  (median; {tail_txt}; n={m['n']})")
        elif m["value"] is not None:
            ref = (detail["nmse_db_reference"] or {}).get(name)
            ref_txt = "" if ref is None else f"  (reference {ref:.4f}, {m['value'] - ref:+.4f})"
            print(f"{name:<34} {m['value']:>12.6g} {m['unit']}{ref_txt}")
    if "layers" in detail:
        print("# layer detail (traced sweeps; medians over them)")
        for name, value in detail["layers"].items():
            if name not in detail["metrics"]:
                print(f"  {name:<32} {value:>12.6g}")
        for check in detail["layer_sum_check"]:
            print(f"# layer self times + harness.other_s = {check['partition_s']:.6f} s;"
                  f" traced sweep_s = {check['traced_sweep_s']:.6f} s")
    print("variant            snr_db  med_nmse_db  recovery  rank_acc  solves  converged")
    for row in detail["accuracy"]:
        solves = "-" if row["solves"] is None else row["solves"]
        conv = "-" if row["converged"] is None else row["converged"]
        print(f"{row['variant']:<18} {row['snr_db']:>6.1f}  {row['median_nmse_db']:>11.2f}"
              f"  {row['recovery']:>8.3f}  {row['rank_accuracy']:>8.3f}  {solves:>6}  {conv:>9}")
    if detail["nmse_db_reference"] is None:
        print(f"# no nmse_db reference for seed {detail['environment']['seed']};"
              " the accuracy guard is idle")
    if detail["problems"]:
        print("# correctness gate FAILED:")
        for problem in detail["problems"]:
            print(f"#   {problem}")
    else:
        print("# correctness gate passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ramc sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
