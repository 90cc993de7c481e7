"""Hybrid analog/digital pilot frontend.

Forms pilot blocks (precoder F = F_rf @ F_bb, combiner W, orthogonal
pilot symbols S), draws row/column-covering boolean sampling masks,
forms the masked noisy baseband observation Y = W^H @ H @ F @ S + N and
provides the coarse pseudo-inverse channel estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleMaskError, ShapeError

# Rejection sampling attempts before falling back to constructive masks.
_MASK_ATTEMPTS = 500
# Phase levels are drawn as int64 below 2**phase_bits.
MAX_PHASE_BITS = 63


@dataclass(frozen=True)
class HybridConfig:
    """Dimensions and quantisation of the hybrid pilot architecture."""

    m_bs: int = 8
    m_ms: int = 8
    n_streams: int = 2
    phase_bits: int = 6
    pilot_length: int = 32

    def __post_init__(self):
        if min(self.m_bs, self.m_ms) < 1:
            raise ConfigError("RF chain counts must be positive")
        # Each stream needs an RF chain at both ends of the link.
        if not 1 <= self.n_streams <= min(self.m_bs, self.m_ms):
            raise ConfigError(
                f"n_streams must lie in [1, min(m_bs, m_ms)={min(self.m_bs, self.m_ms)}]"
            )
        if not 1 <= self.phase_bits <= MAX_PHASE_BITS:
            raise ConfigError(
                f"hybrid.phase_bits must lie in [1, {MAX_PHASE_BITS}], got {self.phase_bits}"
            )
        if self.pilot_length < self.m_bs:
            raise ConfigError(
                "pilot_length must be >= m_bs for orthogonal pilots"
            )


@dataclass(frozen=True)
class PilotBlock:
    """One pilot transmission: beamformers and symbols.

    The products every estimate of the block reuses are formed once, on
    construction: ``effective_precoder`` is F @ S, and ``combiner_pinv``
    and ``precoder_pinv`` are the pseudo-inverses of W^H and of F @ S.
    """

    f: np.ndarray
    w: np.ndarray
    s: np.ndarray
    effective_precoder: np.ndarray = field(init=False)
    combiner_pinv: np.ndarray = field(init=False)
    precoder_pinv: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.f.ndim != 2 or self.w.ndim != 2 or self.s.ndim != 2:
            raise ShapeError("pilot block factors must be matrices")
        if self.f.shape[1] != self.s.shape[0]:
            raise ShapeError(
                f"precoder columns {self.f.shape[1]} != pilot rows {self.s.shape[0]}"
            )
        fs = self.f @ self.s
        object.__setattr__(self, "effective_precoder", fs)
        object.__setattr__(self, "combiner_pinv", np.linalg.pinv(self.w.conj().T, rcond=1e-12))
        object.__setattr__(self, "precoder_pinv", np.linalg.pinv(fs, rcond=1e-12))


@dataclass(frozen=True)
class ObservationSet:
    """Masked view of one pilot observation matrix, the estimators' one input check.

    ``mask`` is a 2-D ``bool`` array, True where ``incomplete`` holds a
    measured entry.  ``noise_var`` is the per-entry noise variance (0.0
    for noiseless data); the completion solver stops once its fit on the
    observed entries reaches that noise level, so the value must describe
    the data, not a tuning choice.  A mask of another type or shape and a
    non-finite observation raise ShapeError, a mask with no observed entry
    InfeasibleMaskError and a negative noise variance ConfigError.
    """

    mask: np.ndarray
    incomplete: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        shape = self.incomplete.shape
        if getattr(self.mask, "dtype", None) != bool or self.mask.shape != shape or len(shape) != 2:
            raise ShapeError(f"mask must be a 2-D bool array of the observation's shape {shape}")
        if not self.mask.any():
            raise InfeasibleMaskError("mask observes no entries")
        if not np.isfinite(self.incomplete).all():
            raise ShapeError("observation contains non-finite entries")
        if not self.noise_var >= 0:
            raise ConfigError("noise variance must be non-negative")


def analog_stage(
    n: int, m: int, phase_bits: int, rng: np.random.Generator
) -> np.ndarray:
    """Random quantised phase-shifter stage, entries of modulus 1/sqrt(n)."""
    levels = 2**phase_bits
    q = rng.integers(0, levels, size=(n, m))
    return np.exp(2j * np.pi * q / levels) / math.sqrt(n)


def _digital_stage(m: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, _ = np.linalg.qr(g)
    return q


def make_beamformers(
    cfg: HybridConfig,
    n_bs: int,
    n_ms: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw hybrid precoder F (n_bs x m_bs) and combiner W (n_ms x m_ms).

    Each is a constant-modulus analog stage times a random unitary digital
    stage, rescaled so its squared Frobenius norm equals n_streams.
    """
    if cfg.m_bs > n_bs or cfg.m_ms > n_ms:
        raise ConfigError("RF chains cannot exceed antenna count")
    rng = np.random.default_rng(seed)
    f = analog_stage(n_bs, cfg.m_bs, cfg.phase_bits, rng) @ _digital_stage(cfg.m_bs, rng)
    w = analog_stage(n_ms, cfg.m_ms, cfg.phase_bits, rng) @ _digital_stage(cfg.m_ms, rng)
    f *= math.sqrt(cfg.n_streams) / np.linalg.norm(f)
    w *= math.sqrt(cfg.n_streams) / np.linalg.norm(w)
    return f, w


def pilot_symbols(cfg: HybridConfig) -> np.ndarray:
    """Orthogonal pilot rows: S @ S^H == I_{m_bs}.

    The first m_bs rows of the unitary n-point DFT matrix, n = pilot_length.
    """
    n = cfg.pilot_length
    rows = np.exp(-2j * np.pi * np.arange(cfg.m_bs) / n).reshape(-1, 1) ** np.arange(n)
    return rows / math.sqrt(n)


def make_pilot_block(cfg: HybridConfig, n_bs: int, n_ms: int, seed) -> PilotBlock:
    """Pilot block with random hybrid beamformers and DFT pilot symbols."""
    f, w = make_beamformers(cfg, n_bs, n_ms, seed)
    return PilotBlock(f=f, w=w, s=pilot_symbols(cfg))


def observe(
    y_clean: np.ndarray, noise: np.ndarray, noise_var: float, mask: np.ndarray
) -> ObservationSet:
    """Masked noisy pilot observation Y = W^H H F S + N.

    ``y_clean`` is the noiseless W^H H F S; ``noise`` holds i.i.d. complex
    Gaussians with unit-variance parts, scaled to variance ``noise_var``.
    """
    y = y_clean
    if noise_var > 0.0:
        y = y + math.sqrt(noise_var / 2.0) * noise
    if y.shape != mask.shape:
        raise ShapeError(f"observation shape {y.shape} does not match mask {mask.shape}")
    return ObservationSet(mask, np.where(mask, y, 0.0 + 0.0j), noise_var)


def covers_all_lines(mask: np.ndarray) -> bool:
    """True when every row and every column of ``mask`` holds an observation."""
    return bool(mask.any(axis=1).all() and mask.any(axis=0).all())


def _draw_mask(
    rows: int, cols: int, n_keep: int, rng: np.random.Generator
) -> np.ndarray:
    flat = rng.choice(rows * cols, size=n_keep, replace=False)
    obs = np.zeros(rows * cols, dtype=bool)
    obs[flat] = True
    return obs.reshape(rows, cols)


def _constructive_mask(
    rows: int, cols: int, n_keep: int, rng: np.random.Generator
) -> np.ndarray:
    # Cover every row and column with max(rows, cols) entries, fill the rest.
    if rows > cols:
        return _constructive_mask(cols, rows, n_keep, rng).T.copy()
    obs = np.zeros((rows, cols), dtype=bool)
    obs[np.arange(rows), rng.permutation(cols)[:rows]] = True
    for j in np.flatnonzero(~obs.any(axis=0)):
        obs[rng.integers(0, rows), j] = True
    picked = rng.choice(np.flatnonzero(~obs.ravel()), size=n_keep - cols, replace=False)
    obs.ravel()[picked] = True
    return obs


def subsample(rows: int, cols: int, keep_fraction: float, seed) -> np.ndarray:
    """Mask of a rows x cols observation keeping ceil(keep_fraction * entries).

    The mask is a ``bool`` array of shape (rows, cols), True where an
    entry is kept.  Entries are drawn uniformly without replacement,
    redrawing until the mask touches every row and column.

    Raises
    ------
    InfeasibleMaskError
        When the kept count cannot cover all rows and columns.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    n_keep = math.ceil(keep_fraction * rows * cols)
    if n_keep < max(rows, cols):
        raise InfeasibleMaskError(
            f"{n_keep} observations cannot cover {rows} rows and {cols} columns"
        )
    if n_keep == rows * cols:
        return np.ones((rows, cols), dtype=bool)
    rng = np.random.default_rng(seed)
    for _ in range(_MASK_ATTEMPTS):
        candidate = _draw_mask(rows, cols, n_keep, rng)
        if covers_all_lines(candidate):
            return candidate
    return _constructive_mask(rows, cols, n_keep, rng)


def coarse_channel(obs: ObservationSet, block: PilotBlock) -> np.ndarray:
    """Pseudo-inverse channel estimate from the masked observation.

    Unobserved entries are treated as zero; this is the no-completion
    baseline the two-phase estimator is compared against.  The two
    pseudo-inverses come from ``block``, which forms them once, so each
    call is two matrix products.
    """
    return block.combiner_pinv @ obs.incomplete @ block.precoder_pinv
