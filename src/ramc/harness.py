"""Monte-Carlo evaluation harness.

Runs the estimator variants over SNR grids with paired per-trial seeds,
computes NMSE / recovery-probability / BER metrics, aggregates ablation
reports and writes the canonical records CSV.  Seeds derive from
(master_seed, purpose, trial, t) tuples, so records are reproducible
regardless of scheduling order or worker count.  As no seed depends on
the SNR or the variant, each trial's channel track, pilot blocks and BER
bits and noise are drawn once and shared, read-only, by every
(variant, SNR) evaluated on that trial.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel as chan
from .completion import estimate_rank, r1mc_complete
from .config import ExperimentConfig, parse_variant, snr_to_linear
from .errors import ConfigError, DegenerateSystemError, RamcError, UndefinedMetricError
from .frontend import PilotBlock, coarse_channel, make_pilot_block, observe, subsample
from .recovery import estimate_phase2, somp_baseline

NMSE_FLOOR_DB = -120.0

# Seed-purpose tags keep data and estimator randomness on disjoint streams.
_DATA_TAG = 101
_NOISE_TAG = 202
_MASK_TAG = 303
_PILOT_TAG = 404
_ESTIMATOR_TAG = 505


@dataclass(frozen=True)
class MetricRecord:
    """One estimator evaluation at (variant, snr, trial, t).

    ``iterations``, ``converged`` and ``final_residual`` (the observed-entry
    fit of the completion) come from the Phase-I completion solve; they
    are 0, None and None for variants without Phase I and for failed
    records.
    """

    variant: str
    snr_db: float
    trial: int
    t: int
    nmse: float
    nmse_db: float
    recovered: bool
    ber: float | None
    rank_true: int
    rank_est: int
    runtime_ms: float
    error: str = ""
    iterations: int = 0
    converged: bool | None = None
    final_residual: float | None = None


def nmse(h_true, h_est) -> float:
    """Normalised mean squared error ||H - Hhat||_F^2 / ||H||_F^2."""
    h = np.asarray(h_true)
    denom = np.linalg.norm(h) ** 2
    if denom == 0.0:
        raise UndefinedMetricError("NMSE undefined for a zero reference channel")
    return float(np.linalg.norm(h - np.asarray(h_est)) ** 2 / denom)


def nmse_db(value: float) -> float:
    """NMSE in dB, clipped at the reporting floor ``NMSE_FLOOR_DB``."""
    if value < 0:
        raise UndefinedMetricError(f"NMSE must be non-negative, got {value}")
    if value == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(value), NMSE_FLOOR_DB)


def draw_ber_link(n_rx: int, n_symbols: int, n_streams: int = 2, seed=None):
    """Draw ``(bits, symbols, noise)``, the random inputs of :func:`ber_link`.

    ``2 * n_streams`` rows of ``n_symbols`` bits map to ``n_streams`` rows
    of QPSK symbols; the noise is unit-variance circular complex Gaussian
    on ``n_rx`` receive antennas.  Nothing here depends on a channel, an
    estimate or the SNR, so one draw serves every link evaluated on it.
    """
    if n_symbols < 1000:
        raise ConfigError(f"need at least 1000 symbols, got {n_symbols}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(2 * n_streams, n_symbols))
    symbols = (
        (1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])
    ) / math.sqrt(2.0)
    noise = (
        rng.normal(size=(n_rx, n_symbols)) + 1j * rng.normal(size=(n_rx, n_symbols))
    ) / math.sqrt(2.0)
    return bits, symbols, noise


def ber_link(h_true, h_est, snr_db: float, draws) -> float:
    """QPSK bit error rate of an eigen-beamformed link.

    Precoder and combiner are the top singular vectors of the *estimate*,
    one per stream of ``draws`` (see :func:`draw_ber_link`); transmission
    runs over the *true* channel with the drawn AWGN and per-stream scalar
    equalisation, so estimation error shows up as inter-stream
    interference and beamforming loss.  ``draws`` is only read.
    """
    h = np.asarray(h_true, dtype=np.complex128)
    est = np.asarray(h_est, dtype=np.complex128)
    u, s, vh = np.linalg.svd(est)
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateSystemError("cannot beamform on a zero channel estimate")
    bits, symbols, noise = draws
    n_streams = symbols.shape[0]
    if n_streams > min(h.shape):
        raise ConfigError(f"{n_streams} streams exceed channel dimensions {h.shape}")
    precoder = vh.conj().T[:, :n_streams]
    combiner = u[:, :n_streams]

    effective = h @ precoder
    # Transmit power is referenced to matched beamforming on the true
    # channel, so misaligned beams lose receive SNR rather than being
    # compensated with extra power.
    s_true = np.linalg.svd(h, compute_uv=False)
    signal_power = float(np.sum(s_true[:n_streams] ** 2)) / h.shape[0]
    snr_lin = snr_to_linear(snr_db)
    gain = math.sqrt(snr_lin / signal_power) if signal_power > 0 else 0.0
    received = combiner.conj().T @ (gain * effective @ symbols + noise)

    link = combiner.conj().T @ (gain * effective)
    diag = np.diagonal(link).copy()
    safe = np.abs(diag) > 1e-300
    equalised = np.where(safe[:, None], received / np.where(safe, diag, 1.0)[:, None], received)
    errors = int(np.sum(bits[0::2] != (equalised.real < 0)))
    errors += int(np.sum(bits[1::2] != (equalised.imag < 0)))
    return errors / bits.size


def _seed(cfg: ExperimentConfig, tag: int, trial: int, t: int = 0):
    # The SNR index is deliberately absent: every SNR point sees the same
    # channels, masks, and noise directions, so sweep curves vary only
    # through the noise scale (common random numbers across the grid).
    return np.random.SeedSequence((cfg.master_seed, tag, trial, t))


def _noise_var_for_snr(y_clean: np.ndarray, snr_db: float) -> float:
    snr_lin = snr_to_linear(snr_db)
    if snr_lin == 0.0:
        return float("inf")
    return float(np.linalg.norm(y_clean) ** 2 / (y_clean.size * snr_lin))


def _dictionary(cfg: ExperimentConfig):
    return chan.make_dictionary(
        cfg.channel,
        size_ms=cfg.grid_oversampling * cfg.channel.n_ms,
        size_bs=cfg.grid_oversampling * cfg.channel.n_bs,
    )


def _channel_track(cfg: ExperimentConfig, trial: int, dictionary):
    rng = np.random.default_rng(_seed(cfg, _DATA_TAG, trial))
    grid = dictionary if cfg.on_grid else None
    first = chan.sample_realization(cfg.channel, rng, dictionary=grid)
    track = [first]
    if cfg.time_steps > 1:
        track += chan.evolve(
            first,
            cfg.time_steps - 1,
            rank_schedule=cfg.rank_schedule,
            rng=rng,
            dictionary=grid,
        )
    return track


@dataclass(frozen=True)
class _StepDraws:
    """One step's SNR- and variant-free inputs; ``block`` has ``noise_var``
    0, ``y_clean`` is its WᴴHFS, and ``error`` is what a draw raised."""

    real: chan.ChannelRealization
    rank_true: int
    block: PilotBlock | None = None
    y_clean: np.ndarray | None = None
    ber: tuple | None = None
    error: Exception | None = None


def _draw_trial(cfg: ExperimentConfig, trial: int, dictionary) -> list[_StepDraws]:
    """Draw one trial's SNR- and variant-free inputs, one entry per step.

    Their seeds depend on (trial, t) only, so every (variant, SNR) of the
    trial shares them.  The arrays are made read-only, so that no
    evaluation can change what the next one sees.
    """
    steps = []
    for t, real in enumerate(_channel_track(cfg, trial, dictionary)):
        rank_true = int(np.linalg.matrix_rank(real.matrix, tol=None))
        try:
            seed = _seed(cfg, _PILOT_TAG, trial, t)
            block = make_pilot_block(cfg.hybrid, cfg.channel.n_bs, cfg.channel.n_ms, seed=seed)
            y_clean = block.w.conj().T @ real.matrix @ block.effective_precoder
            ber = None
            if cfg.ber_symbols > 0:
                ber = draw_ber_link(
                    real.matrix.shape[0], cfg.ber_symbols, cfg.hybrid.n_streams,
                    seed=_seed(cfg, _ESTIMATOR_TAG, trial, t),
                )
            steps.append(_StepDraws(real, rank_true, block, y_clean, ber))
            shared = [block.f, block.w, block.s, y_clean, *(ber or ())]
        except (RamcError, np.linalg.LinAlgError) as exc:
            steps.append(_StepDraws(real, rank_true, error=exc))
            shared = []
        for array in [real.matrix, *shared]:
            array.setflags(write=False)
    return steps


def _observe_step(cfg: ExperimentConfig, snr_idx: int, trial: int, t: int, step: _StepDraws):
    """Pilot block and masked observation of one step at one SNR."""
    if step.error is not None:
        raise step.error.with_traceback(None)
    snr_db = cfg.snr_grid_db[snr_idx]
    block = replace(step.block, noise_var=_noise_var_for_snr(step.y_clean, snr_db))
    full = observe(step.real, block, seed=_seed(cfg, _NOISE_TAG, trial, t))
    return block, subsample(full, cfg.keep_fraction, seed=_seed(cfg, _MASK_TAG, trial, t))


def simulate_trial(cfg: ExperimentConfig, snr_idx: int = 0, trial: int = 0):
    """Generate one trial's channel track and masked pilot observations.

    Returns (track, blocks, observations) with one entry per time step,
    drawn from the same seed coordinates the sweep uses.
    """
    if not 0 <= snr_idx < len(cfg.snr_grid_db):
        raise ConfigError(f"snr index {snr_idx} outside the configured grid")
    steps = _draw_trial(cfg, trial, _dictionary(cfg))
    observed = [_observe_step(cfg, snr_idx, trial, t, s) for t, s in enumerate(steps)]
    return [s.real for s in steps], [b for b, _ in observed], [o for _, o in observed]


def _estimate_one(
    variant_kind: str,
    variant_param: int | None,
    cfg: ExperimentConfig,
    obs,
    block,
    dictionary,
    ranks: list[int],
):
    """Run one estimator variant; returns (h_hat, rank_est, sparse, solve).

    ``solve`` is the completion solver's :class:`CompletionResult`, None
    for the variants that skip Phase I.  ``ranks`` holds the trial's
    corrected ranks so far: ``rank_aware`` hints its solve with the last
    one plus ``rank_headroom`` (no hint on the first step) and appends
    its own before Phase II runs, so a step whose Phase II fails still
    hints the next step.
    """
    solver = cfg.solver
    if variant_kind == "coarse_only":
        try:
            rank_est = estimate_rank(obs.incomplete, solver.energy_ratio)
        except DegenerateSystemError:
            rank_est = 0
        return coarse_channel(obs, block), rank_est, None, None

    if variant_kind == "somp_baseline":
        rough = coarse_channel(obs, block)
        try:
            cap = estimate_rank(obs.incomplete, solver.energy_ratio)
        except DegenerateSystemError:
            cap = min(obs.incomplete.shape)
        est = somp_baseline(
            rough,
            dictionary.a_ms,
            replace(cfg.omp, sparsity_cap=max(cap, 1)),
        )
        return dictionary.a_ms @ est.gains, cap, est, None

    if variant_kind == "rank_aware":
        hint = None
        if ranks:
            hint = min(ranks[-1] + solver.rank_headroom, min(obs.incomplete.shape))
        result = r1mc_complete(obs, rank_hint=hint, opts=solver)
        # Corrector: the next hint comes from the rank of the completed
        # matrix, not from the raw factor count.
        try:
            corrected = estimate_rank(result.completed, solver.energy_ratio)
        except DegenerateSystemError:
            corrected = result.rank
        ranks.append(max(corrected, 1))
        sparse, h_hat = estimate_phase2(
            result.completed, block, dictionary, max(corrected, 1), cfg.omp
        )
        return h_hat, corrected, sparse, result

    if variant_kind == "fixed_rank":
        result = r1mc_complete(obs, rank_hint=variant_param, opts=solver)
        sparse, h_hat = estimate_phase2(
            result.completed, block, dictionary, variant_param, cfg.omp
        )
        return h_hat, variant_param, sparse, result

    if variant_kind == "rank_oblivious":
        result = r1mc_complete(
            obs, rank_hint=min(obs.incomplete.shape), opts=solver
        )
        # No rank feedback: the pursuit stops on its residual alone.
        loose = replace(
            cfg.omp,
            sparsity_cap=dictionary.size_aoa * dictionary.size_aod,
        )
        sparse, h_hat = estimate_phase2(result.completed, block, dictionary, 1, loose)
        return h_hat, result.rank, sparse, result

    raise ConfigError(f"unhandled estimator variant {variant_kind!r}")


def _run_trial(
    cfg: ExperimentConfig,
    variant: str,
    snr_idx: int,
    trial: int,
    dictionary,
    steps: list[_StepDraws],
    artifacts: dict | None = None,
):
    kind, param = parse_variant(variant)
    snr_db = cfg.snr_grid_db[snr_idx]
    ranks: list[int] = []
    records = []
    if artifacts is not None:
        artifacts.update(t=[], truth=[], estimate=[], sparse=[], mask=[], trace=[])
    for t, step in enumerate(steps):
        started = time.perf_counter()
        real = step.real
        try:
            block, obs = _observe_step(cfg, snr_idx, trial, t, step)
            h_hat, rank_est, sparse, solve = _estimate_one(
                kind, param, cfg, obs, block, dictionary, ranks
            )
            if artifacts is not None:
                artifacts["t"].append(t)
                artifacts["truth"].append(real.matrix)
                artifacts["estimate"].append(h_hat)
                artifacts["sparse"].append(sparse)
                artifacts["mask"].append(obs.mask)
                artifacts["trace"].append(solve.trace if solve is not None else ())
            value = nmse(real.matrix, h_hat)
            value_db = nmse_db(value)
            ber = None
            if step.ber is not None:
                ber = ber_link(real.matrix, h_hat, snr_db, step.ber)
            records.append(
                MetricRecord(
                    variant=variant,
                    snr_db=snr_db,
                    trial=trial,
                    t=t,
                    nmse=value,
                    nmse_db=value_db,
                    recovered=value_db <= cfg.recovery_threshold_db,
                    ber=ber,
                    rank_true=step.rank_true,
                    rank_est=int(rank_est),
                    runtime_ms=(time.perf_counter() - started) * 1e3,
                    iterations=solve.iterations if solve is not None else 0,
                    converged=solve.converged if solve is not None else None,
                    final_residual=solve.final_residual if solve is not None else None,
                )
            )
        except (RamcError, np.linalg.LinAlgError) as exc:
            records.append(
                MetricRecord(
                    variant=variant,
                    snr_db=snr_db,
                    trial=trial,
                    t=t,
                    nmse=float("nan"),
                    nmse_db=float("nan"),
                    recovered=False,
                    ber=None,
                    rank_true=step.rank_true,
                    rank_est=0,
                    runtime_ms=(time.perf_counter() - started) * 1e3,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return records


def run_sweep(
    cfg: ExperimentConfig,
    variants=None,
    threads: int | None = None,
) -> list[MetricRecord]:
    """Evaluate estimator variants over the configured SNR grid.

    Every draw depends only on (trial, t), so all variants and SNRs see
    identical data and pair trial for trial; workers take whole trials,
    whose SNR- and variant-free draws are made once and shared.  Module
    errors mark single records as failed; the sweep continues.

    Records come back sorted by (variant, snr, trial, t) regardless of
    the worker count.
    """
    variants = list(variants) if variants is not None else [cfg.estimator_variant]
    for name in variants:
        parse_variant(name)
    workers = threads if threads is not None else cfg.threads
    dictionary = _dictionary(cfg)

    def trial_records(trial):
        steps = _draw_trial(cfg, trial, dictionary)
        return [
            record
            for variant in variants
            for snr_idx in range(len(cfg.snr_grid_db))
            for record in _run_trial(cfg, variant, snr_idx, trial, dictionary, steps)
        ]

    if workers == 1:
        chunks = [trial_records(trial) for trial in range(cfg.n_trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(trial_records, range(cfg.n_trials)))
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.variant, r.snr_db, r.trial, r.t))
    return records


def run_single_trial(
    cfg: ExperimentConfig,
    variant: str | None = None,
    snr_idx: int = 0,
    trial: int = 0,
    artifacts: dict | None = None,
) -> list[MetricRecord]:
    """One (variant, snr, trial) evaluation outside the sweep pool.

    Seeding matches :func:`run_sweep`, so the returned records equal the
    corresponding sweep rows.  Pass an ``artifacts`` dict to receive the
    per-step truth/estimate matrices, sparse estimates, masks and solver
    traces of the steps that succeeded, with their time indices in "t".
    """
    variant = variant if variant is not None else cfg.estimator_variant
    if not 0 <= snr_idx < len(cfg.snr_grid_db):
        raise ConfigError(f"snr index {snr_idx} outside the configured grid")
    dictionary = _dictionary(cfg)
    steps = _draw_trial(cfg, trial, dictionary)
    return _run_trial(cfg, variant, snr_idx, trial, dictionary, steps, artifacts=artifacts)


def _fmt_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_records(path, records, include_runtime: bool = False) -> None:
    """Canonical records CSV.

    The runtime column is blanked by default so repeated runs of the
    same seed produce byte-identical files; pass ``include_runtime`` for
    profiling output.
    """
    names = [f.name for f in fields(MetricRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for record in records:
            row = []
            for name in names:
                if name == "runtime_ms" and not include_runtime:
                    row.append("")
                else:
                    row.append(_fmt_field(getattr(record, name)))
            writer.writerow(row)


def read_records(path) -> list[MetricRecord]:
    """Load a records CSV written by :func:`write_records`."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                MetricRecord(
                    variant=row["variant"],
                    snr_db=float(row["snr_db"]),
                    trial=int(row["trial"]),
                    t=int(row["t"]),
                    nmse=float(row["nmse"]) if row["nmse"] else float("nan"),
                    nmse_db=float(row["nmse_db"]) if row["nmse_db"] else float("nan"),
                    recovered=row["recovered"] == "1",
                    ber=float(row["ber"]) if row["ber"] else None,
                    rank_true=int(row["rank_true"]),
                    rank_est=int(row["rank_est"]),
                    runtime_ms=float(row["runtime_ms"]) if row["runtime_ms"] else 0.0,
                    error=row["error"],
                    iterations=int(row["iterations"]),
                    converged=row["converged"] == "1" if row["converged"] else None,
                    final_residual=(
                        float(row["final_residual"]) if row["final_residual"] else None
                    ),
                )
            )
    return out


@dataclass(frozen=True)
class AblationReport:
    """Per-variant medians and pairwise gaps over the SNR grid."""

    variants: tuple[str, ...]
    snrs: tuple[float, ...]
    median_nmse_db: np.ndarray
    recovery: np.ndarray
    rank_accuracy: np.ndarray
    gaps_db: dict

    def to_rows(self):
        rows = []
        for vi, variant in enumerate(self.variants):
            for si, snr in enumerate(self.snrs):
                rows.append(
                    {
                        "variant": variant,
                        "snr_db": snr,
                        "median_nmse_db": self.median_nmse_db[vi, si],
                        "recovery": self.recovery[vi, si],
                        "rank_accuracy": self.rank_accuracy[vi, si],
                    }
                )
        return rows

    def __str__(self):
        lines = ["variant            snr_db  med_nmse_db  recovery  rank_acc"]
        for row in self.to_rows():
            lines.append(
                f"{row['variant']:<18} {row['snr_db']:>6.1f}  "
                f"{row['median_nmse_db']:>11.2f}  {row['recovery']:>8.3f}  "
                f"{row['rank_accuracy']:>8.3f}"
            )
        for (a, b), gaps in self.gaps_db.items():
            formatted = ", ".join(f"{g:+.2f}" for g in gaps)
            lines.append(f"gap {a} - {b} [dB]: {formatted}")
        return "\n".join(lines)


def ablation_report(records) -> AblationReport:
    """Aggregate records into per-variant medians and pairwise dB gaps.

    Failed records are excluded from medians but drag down recovery and
    rank-accuracy fractions.  Comparing requires at least two variants;
    single-variant summaries come from :func:`summarize_records`.
    """
    report = summarize_records(records)
    if len(report.variants) < 2:
        raise UndefinedMetricError(
            "ablation needs at least two variants, got "
            f"{list(report.variants)}"
        )
    return report


def summarize_records(records) -> AblationReport:
    """Per-variant medians over the SNR grid, any number of variants."""
    records = list(records)
    if not records:
        raise UndefinedMetricError("cannot summarise an empty record set")
    variants = tuple(sorted({r.variant for r in records}))
    snrs = tuple(sorted({r.snr_db for r in records}))
    shape = (len(variants), len(snrs))
    median = np.full(shape, np.nan)
    recovery = np.zeros(shape)
    accuracy = np.zeros(shape)
    for vi, variant in enumerate(variants):
        for si, snr in enumerate(snrs):
            bucket = [r for r in records if r.variant == variant and r.snr_db == snr]
            if not bucket:
                continue
            finite = [r.nmse_db for r in bucket if not math.isnan(r.nmse_db)]
            if finite:
                median[vi, si] = float(np.median(finite))
            recovery[vi, si] = sum(r.recovered for r in bucket) / len(bucket)
            accuracy[vi, si] = sum(
                r.rank_est == r.rank_true and not r.error for r in bucket
            ) / len(bucket)
    gaps = {}
    for ai in range(len(variants)):
        for bi in range(ai + 1, len(variants)):
            gaps[(variants[ai], variants[bi])] = median[ai] - median[bi]
    return AblationReport(
        variants=variants,
        snrs=snrs,
        median_nmse_db=median,
        recovery=recovery,
        rank_accuracy=accuracy,
        gaps_db=gaps,
    )


def write_report(path, report: AblationReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "snr_db", "median_nmse_db", "recovery", "rank_accuracy"])
        for row in report.to_rows():
            writer.writerow(
                [
                    row["variant"],
                    repr(float(row["snr_db"])),
                    "" if math.isnan(row["median_nmse_db"]) else repr(float(row["median_nmse_db"])),
                    repr(float(row["recovery"])),
                    repr(float(row["rank_accuracy"])),
                ]
            )
