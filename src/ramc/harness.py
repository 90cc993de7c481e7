"""Monte-Carlo evaluation harness.

Runs the estimator variants over SNR grids with paired per-trial seeds,
computes NMSE / recovery-probability / BER metrics, aggregates ablation
reports and writes the canonical records CSV.  Seeds derive from
(master_seed, purpose, trial, t) tuples, so records are reproducible
regardless of scheduling order or worker count.

A trial is a list of rows, one per record (variant, SNR, t), that pass
through its stages.  Each value is computed once, at the coarsest level
it depends on, and shared read-only.  Per step (trial, t): the channel
and its singular values, the pilot block with F @ S and its two
pseudo-inverses, the observation noise and the mask.  Per (step, SNR),
for every variant: the masked observation, the energy-rule rank of its
zero fill (also the tracker's first hint) and the coarse estimate.  Per
(step, SNR, rank hint), for every Phase-I variant that gives that hint:
the :func:`r1mc_complete` solve and the energy-rule rank of its
completion.  Per trial: the estimates of every ``somp_baseline`` row, in
one :func:`somp_baseline` call.  Per step: the Phase-II estimates of
every row with a Phase-I completion, in one :func:`estimate_phase2` call
on atoms built once, then the BER of every row with an estimate, in one
:func:`ber_link` call.  These three stacked stages run through
:func:`_stacked`, so an error fails its own rows and no others.
"""

from __future__ import annotations

import csv
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import channel as chan
from .completion import CompletionResult, estimate_rank, r1mc_complete
from .config import MAX_BER_STREAMS, ExperimentConfig, check_snr_db, snr_to_linear
from .errors import ConfigError, DegenerateSystemError, RamcError, ShapeError, UndefinedMetricError
from .frontend import PilotBlock, coarse_channel, make_pilot_block, observe, subsample
from .io import read_cell, write_csv
from .recovery import SparseGainEstimate, estimate_phase2, grid_channel, somp_baseline

NMSE_FLOOR_DB = -120.0

# Seed-purpose tags keep each kind of draw on its own random stream.
_DATA_TAG = 101
_NOISE_TAG = 202
_MASK_TAG = 303
_PILOT_TAG = 404

# The errors that fail a record; any other error stops the sweep.
_ERRORS = (RamcError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class MetricRecord:
    """One estimator evaluation at (variant, snr, trial, t).

    ``iterations``, ``converged`` and ``final_residual`` (the observed-entry
    fit of the completion) come from the Phase-I completion solve; they
    are 0, None and None for variants without Phase I and for failed
    records.  ``rank_est`` is the energy-rule rank of the completion for
    ``rank_aware`` and ``rank_oblivious``, k for ``fixed_rank:k``, and the
    zero fill's energy-rule rank for the baselines.  ``runtime_ms`` is
    the wall time of the record's own work before its stacked stage (its
    Phase-I solve, or a baseline's zero-fill rank and ``coarse_only``'s
    coarse estimate, each timed in the first record that takes it, so a
    record that shares another's solve does not time it) and of its
    NMSE.  It leaves out the SOMP pursuit with its coarse estimates,
    Phase II and the BER, which run for many records at once.
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
    At +inf dB each part is decided as the noiseless ``mu < 0``, but a
    part below the gain floor's scale, |mu| < 1e-12 s_true[0] / |g_j|,
    is roundoff and is decided as exactly 0: an error iff it was sent
    minus.  The cost grows as 4^s, so at most ``MAX_BER_STREAMS`` (4)
    streams are taken.

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
    floor = 1e-12 * s_true[0]
    gains = np.where(np.abs(diag) > floor, diag, 1.0)
    # Every pattern of the 2s sign bits, one column each, as QPSK symbols.
    signs = 1.0 - 2.0 * (np.arange(4**n_streams) >> np.arange(2 * n_streams)[:, None] & 1)
    symbols = (signs[0::2] + 1j * signs[1::2]) / math.sqrt(2.0)
    mixed = (link / gains[:, :, None]) @ symbols
    # Noiseless received parts, row 2j + 1 the imaginary part of stream j
    # as in ``signs``, and each row's noise std times sqrt(2).
    parts = np.stack([mixed.real, mixed.imag], axis=2).reshape(len(live), *signs.shape)
    gain_abs = np.repeat(np.abs(gains), 2, axis=1)[:, :, None]
    scale = sigma[:, None, None] / gain_abs
    # Q(b mu / std) = erfc(b mu / scale) / 2; with no noise the argument
    # is +inf where the decision mu < 0 is right and -inf where it is not,
    # and a part whose link is roundoff (below the floor scaled as mu) is 0.
    roundoff = np.abs(parts) < floor / gain_abs
    arg = np.where((parts < 0) & ~roundoff, -np.inf, np.inf) * signs
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
        except _ERRORS as exc:
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
    by every variant, or the ``error`` that its draws or ``observe`` raised.

    Its Phase-I completions are shared too: one solve per rank hint, and
    the energy-rule rank of each, computed when a variant first asks."""

    def __init__(self, cfg: ExperimentConfig, snr_idx: int, step: _StepDraws):
        self.obs, self.error = None, None
        self.block = step.block
        self._solves: dict[int, CompletionResult] = {}
        self._ranks: dict[int, int] = {}
        try:
            self.obs = _observe_step(cfg, snr_idx, step)
            self.obs.incomplete.setflags(write=False)
        except _ERRORS as exc:
            self.error = exc

    def completion(self, hint: int) -> CompletionResult:
        """The :func:`r1mc_complete` result of ``obs`` at ``hint``, with
        a read-only ``completed``."""
        if hint not in self._solves:
            result = r1mc_complete(self.obs, rank_hint=hint)
            result.completed.setflags(write=False)
            self._solves[hint] = result
        return self._solves[hint]

    def corrected_rank(self, hint: int) -> int:
        """The energy-rule rank of the completion at ``hint``, or its
        factor count when the completion is zero."""
        if hint not in self._ranks:
            result = self.completion(hint)
            try:
                self._ranks[hint] = estimate_rank(result.completed)
            except DegenerateSystemError:
                self._ranks[hint] = result.rank
        return self._ranks[hint]

    @cached_property
    def zero_fill_rank(self) -> int | None:
        """The energy-rule rank of ``obs``, the baselines' rank and the
        tracker's first hint; None when degenerate."""
        try:
            return estimate_rank(self.obs.incomplete)
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


VARIANTS = ("rank_aware", "fixed_rank", "rank_oblivious", "coarse_only", "somp_baseline")

# Concrete variant list for side-by-side ablations (fixed_rank needs a rank).
DEFAULT_ABLATION = (
    "rank_aware",
    "fixed_rank:2",
    "rank_oblivious",
    "coarse_only",
    "somp_baseline",
)

_FIXED_RANK_RE = re.compile(r"fixed_rank:([1-9][0-9]*)")


def parse_variant(name: str) -> tuple[str, int | None]:
    """Split an estimator variant name into (kind, parameter).

    ``fixed_rank`` takes its rank as ``fixed_rank:k``, k in ASCII digits
    without a leading zero, so that each variant has one name.
    """
    if name in ("rank_aware", "rank_oblivious", "coarse_only", "somp_baseline"):
        return name, None
    match = _FIXED_RANK_RE.fullmatch(name)
    if match:
        return "fixed_rank", int(match.group(1))
    raise ConfigError(
        f"unknown estimator variant {name!r}; expected one of {VARIANTS} "
        "(fixed_rank takes a rank, e.g. fixed_rank:3)"
    )


# Factors that rank_aware grants above the previous step's rank, so that
# an understated rank can grow back.
RANK_HEADROOM = 2


@dataclass
class _Row:
    """One record on its way through a trial's stages: its
    :class:`MetricRecord` ``fields`` so far, its step's observation
    ``seen``, and its channel estimate ``h`` with its ``sparse`` estimate
    once it has one.  A row whose estimate comes from a stacked ``stage``,
    "somp" or "phase2", waits for it with the ``cap`` (None for no cap)
    at which that stage pursues the coarse estimate of ``seen`` or the
    completion of its Phase-I ``solve``.  A failed row has no ``h``."""

    fields: dict
    seen: _Observed
    h: np.ndarray | None = None
    sparse: SparseGainEstimate | None = None
    solve: CompletionResult | None = None
    cap: int | None = None
    stage: str | None = None

    def fail(self, exc: Exception) -> None:
        """Give the record the outcome fields of one that ``exc`` failed."""
        self.fields.update(
            nmse=math.nan, nmse_db=math.nan, recovered=False, ber=None, rank_est=0,
            error=f"{type(exc).__name__}: {exc}", iterations=0, converged=None,
            final_residual=None,
        )
        self.h = self.sparse = self.solve = self.stage = None


def _estimate_one(variant_kind: str, variant_param: int | None, row: _Row, ranks: list[int]):
    """Run one estimator variant on ``row.seen.obs`` up to its stacked
    stage, setting the row's ``rank_est`` and its ``h`` or ``stage``.

    ``somp_baseline`` caps SOMP at the zero fill's rank (the full shape
    when that is degenerate).  The Phase-I variants set their solve's
    :class:`CompletionResult` as ``solve``, taken from ``row.seen``, so
    variants that give the same hint share one solve.  ``fixed_rank:k``
    hints k and caps Phase II at k.  ``ranks`` holds the trial's
    corrected ranks so far: ``rank_aware`` hints its solve with the last
    one plus ``RANK_HEADROOM`` (the zero fill's rank on the first step),
    reports the completion's corrected rank as ``rank_est`` and appends
    it, so a step whose Phase II fails still hints the next step.
    ``rank_oblivious`` does the same but pursues without the rank cap.
    """
    seen, obs = row.seen, row.seen.obs
    if variant_kind == "coarse_only":
        rank = seen.zero_fill_rank
        row.fields["rank_est"] = 0 if rank is None else rank
        row.h = seen.coarse
        return
    if variant_kind == "somp_baseline":
        rank = seen.zero_fill_rank
        row.cap = row.fields["rank_est"] = min(obs.incomplete.shape) if rank is None else rank
        row.stage = "somp"
        return
    if variant_kind == "fixed_rank":
        result = seen.completion(variant_param)
        rank_est = cap = variant_param
    else:
        # rank_aware or rank_oblivious, the kinds left that parse_variant
        # returns.
        if ranks:
            hint = min(ranks[-1] + RANK_HEADROOM, min(obs.incomplete.shape))
        elif (hint := seen.zero_fill_rank) is None:
            raise DegenerateSystemError("cannot estimate the rank of a zero matrix")
        result = seen.completion(hint)
        # Corrector: the next hint comes from the rank of the completed
        # matrix, not from the raw factor count.
        rank_est = seen.corrected_rank(hint)
        ranks.append(max(rank_est, 1))
        cap = max(rank_est, 1) if variant_kind == "rank_aware" else None
    row.fields.update(rank_est=int(rank_est), iterations=result.iterations,
                      converged=result.converged, final_residual=result.final_residual)
    row.solve, row.cap, row.stage = result, cap, "phase2"


def _run_trial(
    cfg: ExperimentConfig,
    variant: str,
    snr_idx: int,
    trial: int,
    steps: list[_StepDraws],
    observed: list[_Observed],
) -> list[_Row]:
    """One (variant, SNR, trial) up to its stacked stage: a :class:`_Row`
    per step, its ``runtime_ms`` the wall time of its estimate so far."""
    kind, param = parse_variant(variant)
    snr_db = cfg.snr_grid_db[snr_idx]
    ranks: list[int] = []
    rows = []
    for t, (step, seen) in enumerate(zip(steps, observed)):
        started = time.perf_counter()
        row = _Row(dict(variant=variant, snr_db=snr_db, trial=trial, t=t,
                        rank_true=step.rank_true), seen)
        try:
            if seen.error is not None:
                raise seen.error.with_traceback(None)
            _estimate_one(kind, param, row, ranks)
        except _ERRORS as exc:
            row.fail(exc)
        row.fields["runtime_ms"] = (time.perf_counter() - started) * 1e3
        rows.append(row)
    return rows


def _stacked(rows: list[_Row], inputs, call, place) -> None:
    """Run one stacked stage over ``rows``.

    ``inputs(row)`` gives a row's tuple of inputs, and a row whose inputs
    raise fails alone.  If any row is ready, one ``call`` takes the ready
    rows' inputs, one sequence per tuple position in row order, and
    returns one result per row.  A result that is an error fails its row,
    an error of the whole call fails every ready row, and
    ``place(row, result)`` stores each other result.
    """
    ready, args = [], []
    for row in rows:
        try:
            args.append(inputs(row))
        except _ERRORS as exc:
            row.fail(exc)
        else:
            ready.append(row)
    if not ready:
        return
    try:
        results = call(*zip(*args))
    except _ERRORS as exc:
        results = [exc] * len(ready)
    for row, result in zip(ready, results):
        if isinstance(result, Exception):
            row.fail(result)
        else:
            place(row, result)


def _trial_records(cfg: ExperimentConfig, variants, snr_indices, trial: int, dictionary,
                   steps: list[_StepDraws], artifacts: dict | None = None) -> list[MetricRecord]:
    """One trial's records of every variant at every SNR index, through
    the stages in the order that the module docstring lists; the NMSE of
    each row, before the BER, adds its time to ``runtime_ms``.
    ``artifacts``, if given, receives the truth, estimate, sparse
    estimate and solver trace of each row whose estimate succeeded, with
    its time index in "t".
    """
    observed = [[_Observed(cfg, snr_idx, step) for step in steps] for snr_idx in snr_indices]
    rows = [
        row
        for variant in variants
        for snr_idx, seen in zip(snr_indices, observed)
        for row in _run_trial(cfg, variant, snr_idx, trial, steps, seen)
    ]

    def somp_done(row, est):
        # AoA atoms only: no AoD, and each gain is a row over the BS antennas.
        params = tuple((float(dictionary.grid_aoa[k]), None, est.gains[k]) for k in est.support)
        row.h = dictionary.a_ms @ est.gains
        row.sparse = SparseGainEstimate(est.gains, est.support, params)

    def phase2_done(row, est):
        row.h, row.sparse = grid_channel(est, dictionary), est

    _stacked(
        [row for row in rows if row.stage == "somp"],
        lambda row: (row.seen.coarse, row.cap),
        lambda targets, caps: somp_baseline(np.stack(targets), dictionary.a_ms, caps),
        somp_done,
    )
    if artifacts is not None:
        artifacts.update(t=[], truth=[], estimate=[], sparse=[], trace=[])
    for t, step in enumerate(steps):
        at_t = [row for row in rows if row.fields["t"] == t]
        _stacked(
            [row for row in at_t if row.stage == "phase2"],
            lambda row: (row.solve.completed, row.cap),
            lambda targets, caps: estimate_phase2(np.stack(targets), step.block, dictionary, caps),
            phase2_done,
        )
        for row in at_t:
            if row.h is None:
                continue
            started = time.perf_counter()
            if artifacts is not None:
                artifacts["t"].append(t)
                artifacts["truth"].append(step.real.matrix)
                artifacts["estimate"].append(row.h)
                artifacts["sparse"].append(row.sparse)
                artifacts["trace"].append(row.solve.trace if row.solve is not None else ())
            try:
                value = nmse(step.real.matrix, row.h)
                value_db = nmse_db(value)
                row.fields.update(nmse=value, nmse_db=value_db, ber=None,
                                  recovered=value_db <= cfg.recovery_threshold_db)
            except _ERRORS as exc:
                row.fail(exc)
            row.fields["runtime_ms"] += (time.perf_counter() - started) * 1e3
        if cfg.ber_symbols:
            _stacked(
                [row for row in at_t if row.h is not None],
                lambda row: (row.h, row.fields["snr_db"]),
                lambda estimates, snrs: ber_link(
                    step.real.matrix, step.s_true, np.stack(estimates), snrs, cfg.hybrid.n_streams
                ),
                lambda row, ber: row.fields.update(ber=ber),
            )
    return [MetricRecord(**row.fields) for row in rows]


def run_sweep(
    cfg: ExperimentConfig,
    variants,
    threads: int | None = None,
) -> list[MetricRecord]:
    """Evaluate the estimator ``variants`` (a sequence of one or more
    names that :func:`parse_variant` accepts) over the configured SNR
    grid.

    Every draw depends only on (trial, t), so all variants and SNRs see
    identical data and pair trial for trial.  Workers take whole trials,
    each run as one :func:`_trial_records`.  Module errors mark single
    records as failed; the sweep continues.

    Records come back sorted by (variant, snr, trial, t) regardless of
    the worker count.  No variant, a bare string, or an unknown or
    repeated variant raises ConfigError before any trial runs.
    """
    names = [] if isinstance(variants, str) else list(variants)
    if not names:
        raise ConfigError(f"variants must be a sequence of one or more names, got {variants!r}")
    for name in names:
        parse_variant(name)
    if len(set(names)) < len(names):
        raise ConfigError(f"variants must not repeat, got {names}")
    workers = threads if threads is not None else cfg.threads
    dictionary = _dictionary(cfg)
    snr_indices = range(len(cfg.snr_grid_db))

    def trial_records(trial):
        steps = _draw_trial(cfg, trial, dictionary)
        return _trial_records(cfg, names, snr_indices, trial, dictionary, steps)

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
    variant: str,
    snr_idx: int = 0,
    trial: int = 0,
    artifacts: dict | None = None,
) -> list[MetricRecord]:
    """One (variant, snr, trial) evaluation outside the sweep pool, for
    one variant name that :func:`parse_variant` accepts.

    Seeding matches :func:`run_sweep`, so the returned records equal the
    corresponding sweep rows.  Pass an ``artifacts`` dict to receive the
    per-step truth/estimate matrices, sparse estimates and solver traces
    of the steps whose estimate succeeded, with their time indices in "t".
    """
    parse_variant(variant)
    dictionary, steps = _single_trial_draws(cfg, snr_idx, trial)
    return _trial_records(cfg, [variant], [snr_idx], trial, dictionary, steps, artifacts)


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
