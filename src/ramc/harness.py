"""Monte-Carlo evaluation harness.

Runs the estimator variants over SNR grids with paired per-trial seeds,
computes NMSE / recovery-probability / BER metrics, aggregates ablation
reports and writes the canonical records CSV.  Seeds derive from
(master_seed, purpose, trial, t) tuples, so records are reproducible
regardless of scheduling order or worker count.  Each value is computed
once, at the coarsest level it depends on, and shared read-only.  Once
per step (trial, t): the channel and its singular values, the pilot
block with F @ S and its two pseudo-inverses, the observation noise
and the mask.  Once per (step, SNR), for every variant:
the masked observation, the energy-rule rank of its zero fill and the
coarse estimate.  Once per step, after every (variant, SNR) has its
estimate: the BER of all of them, in one :func:`ber_link` call.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import channel as chan
from .completion import estimate_rank, r1mc_complete
from .config import MAX_BER_STREAMS, ExperimentConfig, check_snr_db, parse_variant, snr_to_linear
from .errors import ConfigError, DegenerateSystemError, RamcError, ShapeError, UndefinedMetricError
from .frontend import PilotBlock, coarse_channel, make_pilot_block, observe, subsample
from .io import read_cell, write_csv
from .recovery import estimate_phase2, somp_baseline

NMSE_FLOOR_DB = -120.0

# Seed-purpose tags keep each kind of draw on its own random stream.
_DATA_TAG = 101
_NOISE_TAG = 202
_MASK_TAG = 303
_PILOT_TAG = 404


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


def ber_link(h_true, s_true, h_est, snr_db, n_streams: int) -> list:
    """Exact QPSK bit error rates of eigen-beamformed links, one per estimate.

    Row k of the stack ``h_est`` is one estimate of ``h_true``, whose
    link runs at ``snr_db[k]``.  Precoder P and combiner C are the top
    ``n_streams`` singular vectors of the *estimate*, from one stacked
    SVD; transmission runs over the *true* channel (singular values
    ``s_true``) with AWGN and per-stream scalar equalisation by the link
    gains g = diag(C^H H P), so estimation error shows up as inter-stream
    interference and beamforming loss.

    The BER is the sign-error rate's expectation given the link (Proakis
    & Salehi, Digital Communications, 5th ed.).  Stream j's real and
    imaginary parts are received as mu, a known mixture (C^H H P x / g)_j
    of the +-1/sqrt(2) symbol parts x, plus Gaussian noise of standard
    deviation sigma / (sqrt(2) |g_j|), because the combiner columns are
    unit vectors.  A part sent with sign b is wrong with probability
    Q(b mu / std), Q(x) = erfc(x / sqrt(2)) / 2, and the BER is the mean
    of that over the 4^s sign patterns of s streams and their 2s parts.
    At +inf dB each part is decided as the noiseless ``mu < 0``, so a
    part received as exactly 0 is an error iff it was sent minus.  The cost
    grows as 4^s, so at most ``MAX_BER_STREAMS`` (4) streams are taken.

    Returns one entry per row: its BER, or the
    :class:`DegenerateSystemError` of a zero estimate, which fails that
    row alone.  An SNR that the config rejects (NaN, -inf, or finite
    beyond 300 dB) raises :class:`ConfigError`, and so do more streams
    than the channel or the bound allows.
    """
    h = np.asarray(h_true, dtype=np.complex128)
    est = np.asarray(h_est, dtype=np.complex128)
    if est.ndim != 3 or est.shape[1:] != h.shape or est.shape[0] != len(snr_db):
        raise ShapeError(f"need one {h.shape} estimate per SNR, got {est.shape} for {len(snr_db)}")
    check_snr_db(snr_db, "ber_link snr_db")
    if n_streams > min(h.shape):
        raise ConfigError(f"{n_streams} streams exceed channel dimensions {h.shape}")
    if n_streams > MAX_BER_STREAMS:
        raise ConfigError(f"the exact BER takes at most {MAX_BER_STREAMS} streams, got {n_streams}")
    u, s, vh = np.linalg.svd(est)
    live = np.flatnonzero(s[:, 0] != 0.0)
    combiner_h = u[live, :, :n_streams].conj().transpose(0, 2, 1)
    link = combiner_h @ (h @ vh[live].conj().transpose(0, 2, 1)[:, :, :n_streams])
    # The noise level is referenced to matched beamforming on the true
    # channel, so misaligned beams lose receive SNR rather than being
    # compensated with extra power.  At +inf dB the noise vanishes.
    signal_power = float(np.sum(s_true[:n_streams] ** 2)) / h.shape[0]
    sigma = np.array([math.sqrt(signal_power / snr_to_linear(snr_db[k])) for k in live])
    diag = np.diagonal(link, axis1=1, axis2=2)
    # A pair of unit beams gains at most s_true[0]; a stream whose link
    # gain is roundoff next to that has no link, so it is not equalised
    # by a gain whose phase is noise.
    gains = np.where(np.abs(diag) > 1e-12 * s_true[0], diag, 1.0)
    # Every pattern of the 2s sign bits, one column each, as QPSK symbols.
    signs = 1.0 - 2.0 * (np.arange(4**n_streams) >> np.arange(2 * n_streams)[:, None] & 1)
    symbols = (signs[0::2] + 1j * signs[1::2]) / math.sqrt(2.0)
    mixed = (link / gains[:, :, None]) @ symbols
    # Noiseless received parts, row 2j + 1 the imaginary part of stream j
    # as in ``signs``, and each row's noise std times sqrt(2).
    parts = np.stack([mixed.real, mixed.imag], axis=2).reshape(len(live), *signs.shape)
    scale = np.repeat(sigma[:, None] / np.abs(gains), 2, axis=1)[:, :, None]
    # Q(b mu / std) = erfc(b mu / scale) / 2; with no noise the argument
    # is +inf where the decision mu < 0 is right and -inf where it is not.
    arg = np.where(parts < 0, -np.inf, np.inf) * signs
    noisy = sigma > 0.0
    arg[noisy] = signs * parts[noisy] / scale[noisy]
    erfc = np.array([math.erfc(x) for x in arg.ravel().tolist()]).reshape(arg.shape)
    out: list = [DegenerateSystemError("cannot beamform on a zero channel estimate")] * len(est)
    for k, ber in zip(live, 0.5 * erfc.mean(axis=(1, 2))):
        out[k] = float(ber)
    return out


def _seed(cfg: ExperimentConfig, tag: int, trial: int, t: int = 0):
    # The SNR index is deliberately absent: every SNR point sees the same
    # channels, masks, and noise directions, so sweep curves vary only
    # through the noise scale (common random numbers across the grid).
    return np.random.SeedSequence((cfg.master_seed, tag, trial, t))


def _noise_var_for_snr(y_clean: np.ndarray, snr_db: float) -> float:
    return float(np.linalg.norm(y_clean) ** 2 / (y_clean.size * snr_to_linear(snr_db)))


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
    """One step's SNR- and variant-free inputs; ``s_true`` holds the
    channel's singular values, ``y_clean`` the pilot ``block``'s noiseless
    WᴴHFS, ``noise`` its unscaled observation noise, ``mask`` its boolean
    sampling mask and ``error`` what a draw raised."""

    real: chan.ChannelRealization
    s_true: np.ndarray
    rank_true: int
    block: PilotBlock | None = None
    y_clean: np.ndarray | None = None
    noise: np.ndarray | None = None
    mask: np.ndarray | None = None
    error: Exception | None = None


def _draw_trial(cfg: ExperimentConfig, trial: int, dictionary) -> list[_StepDraws]:
    """Draw one trial's SNR- and variant-free inputs, one entry per step.

    Their seeds depend on (trial, t) only, so every (variant, SNR) of the
    trial shares them.  The arrays are made read-only, so that no
    evaluation can change what the next one sees.
    """
    steps = []
    for t, real in enumerate(_channel_track(cfg, trial, dictionary)):
        s_true = np.linalg.svd(real.matrix, compute_uv=False)
        # np.linalg.matrix_rank's default rule, without a second SVD.
        rtol = max(real.matrix.shape) * np.finfo(s_true.dtype).eps
        rank_true = int(np.count_nonzero(s_true > s_true[0] * rtol))
        try:
            seed = _seed(cfg, _PILOT_TAG, trial, t)
            block = make_pilot_block(cfg.hybrid, cfg.channel.n_bs, cfg.channel.n_ms, seed=seed)
            y_clean = block.w.conj().T @ real.matrix @ block.effective_precoder
            rng = np.random.default_rng(_seed(cfg, _NOISE_TAG, trial, t))
            noise = rng.normal(size=y_clean.shape) + 1j * rng.normal(size=y_clean.shape)
            seed = _seed(cfg, _MASK_TAG, trial, t)
            mask = subsample(*y_clean.shape, cfg.keep_fraction, seed=seed)
            steps.append(_StepDraws(real, s_true, rank_true, block, y_clean, noise, mask))
            shared = [block.f, block.w, block.s, block.effective_precoder, block.combiner_pinv,
                      block.precoder_pinv, y_clean, noise, mask]
        except (RamcError, np.linalg.LinAlgError) as exc:
            steps.append(_StepDraws(real, s_true, rank_true, error=exc))
            shared = []
        for array in [real.matrix, s_true, *shared]:
            array.setflags(write=False)
    return steps


def _observe_step(cfg: ExperimentConfig, snr_idx: int, step: _StepDraws):
    """Masked observation of one step at one SNR."""
    if step.error is not None:
        raise step.error.with_traceback(None)
    noise_var = _noise_var_for_snr(step.y_clean, cfg.snr_grid_db[snr_idx])
    return observe(step.y_clean, step.noise, noise_var, step.mask)


class _Observed:
    """One step's masked observation ``obs`` at one SNR, shared read-only
    by every variant, or the ``error`` that its draws or ``observe`` raised."""

    def __init__(self, cfg: ExperimentConfig, snr_idx: int, step: _StepDraws):
        self.obs, self.error, self.energy_ratio = None, None, cfg.solver.energy_ratio
        self.block = step.block
        try:
            self.obs = _observe_step(cfg, snr_idx, step)
            self.obs.incomplete.setflags(write=False)
        except (RamcError, np.linalg.LinAlgError) as exc:
            self.error = exc

    @cached_property
    def zero_fill_rank(self) -> int | None:
        """The baselines' energy-rule rank of ``obs``; None when degenerate."""
        try:
            return estimate_rank(self.obs.incomplete, self.energy_ratio)
        except DegenerateSystemError:
            return None

    @cached_property
    def coarse(self) -> np.ndarray:
        """The baselines' read-only coarse estimate from ``obs``."""
        estimate = coarse_channel(self.obs, self.block)
        estimate.setflags(write=False)
        return estimate


def _single_trial_draws(cfg: ExperimentConfig, snr_idx: int, trial: int):
    """Checked ``(dictionary, steps)`` of one trial run outside the sweep."""
    if not 0 <= snr_idx < len(cfg.snr_grid_db):
        raise ConfigError(f"snr index {snr_idx} outside the configured grid")
    if trial < 0:
        raise ConfigError(f"trial index must be non-negative, got {trial}")
    dictionary = _dictionary(cfg)
    return dictionary, _draw_trial(cfg, trial, dictionary)


def simulate_trial(cfg: ExperimentConfig, snr_idx: int = 0, trial: int = 0):
    """Generate one trial's channel track and masked pilot observations.

    Returns (track, observations) with one entry per time step, drawn
    from the same seed coordinates the sweep uses.
    """
    _, steps = _single_trial_draws(cfg, snr_idx, trial)
    return [s.real for s in steps], [_observe_step(cfg, snr_idx, s) for s in steps]


def _estimate_one(
    variant_kind: str,
    variant_param: int | None,
    cfg: ExperimentConfig,
    seen: _Observed,
    dictionary,
    ranks: list[int],
):
    """Run one estimator variant on ``seen.obs``; returns (h_hat, rank_est,
    sparse, solve).

    ``solve`` is the completion solver's :class:`CompletionResult`, None
    for the variants that skip Phase I.  ``ranks`` holds the trial's
    corrected ranks so far: ``rank_aware`` hints its solve with the last
    one plus ``rank_headroom`` (no hint on the first step) and appends
    its own before Phase II runs, so a step whose Phase II fails still
    hints the next step.
    """
    solver, obs, block = cfg.solver, seen.obs, seen.block
    if variant_kind == "coarse_only":
        rank_est = seen.zero_fill_rank
        return seen.coarse, 0 if rank_est is None else rank_est, None, None

    if variant_kind == "somp_baseline":
        cap = seen.zero_fill_rank
        if cap is None:
            cap = min(obs.incomplete.shape)
        est = somp_baseline(seen.coarse, dictionary.a_ms, max(cap, 1))
        # AoA atoms only: no AoD, and each gain is a row over the BS antennas.
        params = tuple((float(dictionary.grid_aoa[k]), None, est.gains[k]) for k in est.support)
        return dictionary.a_ms @ est.gains, cap, replace(est, parameter_set=params), None

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
        sparse, h_hat = estimate_phase2(result.completed, block, dictionary, max(corrected, 1))
        return h_hat, corrected, sparse, result

    if variant_kind == "fixed_rank":
        result = r1mc_complete(obs, rank_hint=variant_param, opts=solver)
        sparse, h_hat = estimate_phase2(result.completed, block, dictionary, variant_param)
        return h_hat, variant_param, sparse, result

    if variant_kind == "rank_oblivious":
        result = r1mc_complete(
            obs, rank_hint=min(obs.incomplete.shape), opts=solver
        )
        # No rank feedback: the pursuit stops on its residual alone.
        sparse, h_hat = estimate_phase2(result.completed, block, dictionary, None)
        return h_hat, result.rank, sparse, result

    raise ConfigError(f"unhandled estimator variant {variant_kind!r}")


def _failed(exc: Exception) -> dict:
    """The outcome fields of a record that ``exc`` failed."""
    return dict(
        nmse=math.nan, nmse_db=math.nan, recovered=False, ber=None, rank_est=0,
        error=f"{type(exc).__name__}: {exc}", iterations=0, converged=None,
        final_residual=None,
    )


def _run_trial(
    cfg: ExperimentConfig,
    variant: str,
    snr_idx: int,
    trial: int,
    dictionary,
    steps: list[_StepDraws],
    observed: list[_Observed],
    artifacts: dict | None = None,
):
    """One (variant, SNR, trial): its records, without BER, and the
    channel estimate of each step (None where the record failed)."""
    kind, param = parse_variant(variant)
    snr_db = cfg.snr_grid_db[snr_idx]
    ranks: list[int] = []
    records, estimates = [], []
    if artifacts is not None:
        artifacts.update(t=[], truth=[], estimate=[], sparse=[], trace=[])
    for t, (step, seen) in enumerate(zip(steps, observed)):
        started = time.perf_counter()
        real = step.real
        try:
            if seen.error is not None:
                raise seen.error.with_traceback(None)
            h_hat, rank_est, sparse, solve = _estimate_one(
                kind, param, cfg, seen, dictionary, ranks
            )
            if artifacts is not None:
                artifacts["t"].append(t)
                artifacts["truth"].append(real.matrix)
                artifacts["estimate"].append(h_hat)
                artifacts["sparse"].append(sparse)
                artifacts["trace"].append(solve.trace if solve is not None else ())
            value = nmse(real.matrix, h_hat)
            value_db = nmse_db(value)
            outcome = dict(
                nmse=value,
                nmse_db=value_db,
                recovered=value_db <= cfg.recovery_threshold_db,
                ber=None,
                rank_est=int(rank_est),
            )
            if solve is not None:
                outcome.update(
                    iterations=solve.iterations,
                    converged=solve.converged,
                    final_residual=solve.final_residual,
                )
        except (RamcError, np.linalg.LinAlgError) as exc:
            h_hat, outcome = None, _failed(exc)
        records.append(
            MetricRecord(
                variant=variant,
                snr_db=snr_db,
                trial=trial,
                t=t,
                rank_true=step.rank_true,
                runtime_ms=(time.perf_counter() - started) * 1e3,
                **outcome,
            )
        )
        estimates.append(h_hat)
    return records, estimates


def _with_ber(cfg: ExperimentConfig, steps: list[_StepDraws], runs) -> list[MetricRecord]:
    """One trial's records, from the ``(records, estimates)`` of each
    :func:`_run_trial` in ``runs``, with their BER if ``cfg.ber_symbols``
    is positive.

    Each step makes one :func:`ber_link` call over the estimates of its
    records that have not failed, at each record's own SNR.  A row that
    ``ber_link`` fails, or an error of the whole call, fails its record.
    """
    records = [r for recs, _ in runs for r in recs]
    if cfg.ber_symbols == 0:
        return records
    estimates = [h for _, hs in runs for h in hs]
    for t, step in enumerate(steps):
        rows = [i for i, r in enumerate(records) if r.t == t and estimates[i] is not None]
        if not rows:
            continue
        try:
            bers = ber_link(
                step.real.matrix, step.s_true, np.stack([estimates[i] for i in rows]),
                [records[i].snr_db for i in rows], cfg.hybrid.n_streams,
            )
        except (RamcError, np.linalg.LinAlgError) as exc:
            bers = [exc] * len(rows)
        for i, ber in zip(rows, bers):
            outcome = _failed(ber) if isinstance(ber, Exception) else dict(ber=ber)
            records[i] = replace(records[i], **outcome)
    return records


def run_sweep(
    cfg: ExperimentConfig,
    variants=None,
    threads: int | None = None,
) -> list[MetricRecord]:
    """Evaluate estimator variants over the configured SNR grid.

    Every draw depends only on (trial, t), so all variants and SNRs see
    identical data and pair trial for trial; workers take whole trials,
    whose SNR- and variant-free draws are made once per step, whose
    observations once per (step, SNR), and whose BER links once per step
    for every (variant, SNR), and share them.  Module errors mark single
    records as failed; the sweep continues.

    Records come back sorted by (variant, snr, trial, t) regardless of
    the worker count.  An unknown or repeated variant raises ConfigError.
    """
    variants = list(variants) if variants is not None else [cfg.estimator_variant]
    for name in variants:
        parse_variant(name)
    if len(set(variants)) < len(variants):
        raise ConfigError(f"variants must not repeat, got {variants}")
    workers = threads if threads is not None else cfg.threads
    dictionary = _dictionary(cfg)

    def trial_records(trial):
        steps = _draw_trial(cfg, trial, dictionary)
        snrs = range(len(cfg.snr_grid_db))
        observed = [[_Observed(cfg, snr_idx, step) for step in steps] for snr_idx in snrs]
        runs = [
            _run_trial(cfg, variant, snr_idx, trial, dictionary, steps, seen)
            for variant in variants
            for snr_idx, seen in enumerate(observed)
        ]
        return _with_ber(cfg, steps, runs)

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
    per-step truth/estimate matrices, sparse estimates and solver traces
    of the steps whose estimate succeeded, with their time indices in "t".
    """
    variant = variant if variant is not None else cfg.estimator_variant
    dictionary, steps = _single_trial_draws(cfg, snr_idx, trial)
    observed = [_Observed(cfg, snr_idx, step) for step in steps]
    run = _run_trial(cfg, variant, snr_idx, trial, dictionary, steps, observed, artifacts)
    return _with_ber(cfg, steps, [run])


def write_records(path, records) -> None:
    """Canonical records CSV.

    The runtime column is always blank, so repeated runs of the same
    seed produce byte-identical files.
    """
    names = [f.name for f in fields(MetricRecord)]
    rows = (
        [None if name == "runtime_ms" else getattr(r, name) for name in names]
        for r in records
    )
    write_csv(path, names, rows)


def read_records(path) -> list[MetricRecord]:
    """Load a records CSV written by :func:`write_records`.

    Each cell is decoded by its :class:`MetricRecord` field type; the
    blank runtime column reads back as 0.0.
    """
    types = {f.name: f.type for f in fields(MetricRecord)}
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            row["runtime_ms"] = row["runtime_ms"] or "0"
            out.append(MetricRecord(**{n: read_cell(row[n], kind) for n, kind in types.items()}))
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


def summarize_records(records) -> AblationReport:
    """Per-variant medians over the SNR grid and pairwise dB gaps.

    Failed records are excluded from medians but drag down recovery and
    rank-accuracy fractions.
    """
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
    names = ["variant", "snr_db", "median_nmse_db", "recovery", "rank_accuracy"]
    write_csv(path, names, ([row[name] for name in names] for row in report.to_rows()))
