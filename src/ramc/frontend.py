"""Hybrid analog/digital pilot frontend.

Forms pilot blocks (precoder F = F_rf @ F_bb, combiner W, orthogonal
pilot symbols S), produces noisy baseband observations
Y = W^H @ H @ F @ S + N, subsamples them with row/column-covering masks
and provides the coarse pseudo-inverse channel estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import dft

from .channel import ChannelRealization
from .errors import ConfigError, InfeasibleMaskError, ShapeError
from .numerics import SamplingMask, kron, project_mask, pseudo_inverse

# Rejection sampling attempts before falling back to constructive masks.
_MASK_ATTEMPTS = 500


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
        if not 1 <= self.n_streams <= self.m_ms:
            raise ConfigError(
                f"n_streams must lie in [1, m_ms={self.m_ms}]"
            )
        if self.phase_bits < 1:
            raise ConfigError("phase shifters need at least one bit")
        if self.pilot_length < self.m_bs:
            raise ConfigError(
                "pilot_length must be >= m_bs for orthogonal pilots"
            )


@dataclass(frozen=True)
class PilotBlock:
    """One pilot transmission: beamformers, symbols and noise level."""

    f: np.ndarray
    w: np.ndarray
    s: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        if self.f.ndim != 2 or self.w.ndim != 2 or self.s.ndim != 2:
            raise ShapeError("pilot block factors must be matrices")
        if self.f.shape[1] != self.s.shape[0]:
            raise ShapeError(
                f"precoder columns {self.f.shape[1]} != pilot rows {self.s.shape[0]}"
            )
        if self.noise_var < 0:
            raise ConfigError("noise variance must be non-negative")

    @property
    def effective_precoder(self) -> np.ndarray:
        """Combined transmit factor F @ S."""
        return self.f @ self.s


@dataclass(frozen=True)
class ObservationSet:
    """Complete and masked views of one pilot observation matrix."""

    complete: np.ndarray
    mask: SamplingMask
    incomplete: np.ndarray

    def __post_init__(self):
        if self.complete.shape != (self.mask.rows, self.mask.cols):
            raise ShapeError("mask shape does not match observation")
        if self.incomplete.shape != self.complete.shape:
            raise ShapeError("incomplete view shape mismatch")


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
    """Orthogonal pilot rows: S @ S^H == I_{m_bs}."""
    return dft(cfg.pilot_length)[: cfg.m_bs, :] / math.sqrt(cfg.pilot_length)


def make_pilot_block(
    cfg: HybridConfig,
    n_bs: int,
    n_ms: int,
    seed,
    noise_var: float = 0.0,
) -> PilotBlock:
    f, w = make_beamformers(cfg, n_bs, n_ms, seed)
    return PilotBlock(f=f, w=w, s=pilot_symbols(cfg), noise_var=noise_var)


def measurement_matrix(block: PilotBlock) -> np.ndarray:
    """Linear operator Phi with vec(Y) == Phi @ vec(H) (column stacking)."""
    return kron(block.effective_precoder.T, block.w.conj().T)


def observe(
    real: ChannelRealization, block: PilotBlock, seed=None
) -> ObservationSet:
    """Noisy pilot observation Y = W^H H F S + N with a full mask.

    Noise entries are i.i.d. circularly-symmetric complex Gaussian with
    per-entry variance ``block.noise_var``.
    """
    y = block.w.conj().T @ real.matrix @ block.effective_precoder
    if block.noise_var > 0.0:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(block.noise_var / 2.0)
        y = y + sigma * (
            rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape)
        )
    mask = SamplingMask.full(*y.shape)
    return ObservationSet(complete=y, mask=mask, incomplete=y.copy())


def _draw_mask(
    rows: int, cols: int, n_keep: int, rng: np.random.Generator
) -> SamplingMask:
    flat = rng.choice(rows * cols, size=n_keep, replace=False)
    obs = np.zeros(rows * cols, dtype=bool)
    obs[flat] = True
    return SamplingMask(obs.reshape(rows, cols))


def _constructive_mask(
    rows: int, cols: int, n_keep: int, rng: np.random.Generator
) -> SamplingMask:
    # Cover every row and column first, then fill the remainder uniformly.
    obs = np.zeros((rows, cols), dtype=bool)
    cols_for_rows = rng.permutation(cols)[:rows] if cols >= rows else rng.integers(0, cols, rows)
    obs[np.arange(rows), cols_for_rows] = True
    for j in np.flatnonzero(~obs.any(axis=0)):
        obs[rng.integers(0, rows), j] = True
    remaining = np.flatnonzero(~obs.ravel())
    extra = obs.size - obs.sum()
    take = n_keep - int(obs.sum())
    if take > 0:
        picked = rng.choice(remaining, size=min(take, extra), replace=False)
        obs.ravel()[picked] = True
    return SamplingMask(obs)


def subsample(
    obs: ObservationSet, keep_fraction: float, seed=None
) -> ObservationSet:
    """Mask an observation, keeping ceil(keep_fraction * entries) of it.

    Entries are drawn uniformly without replacement, redrawing until the
    mask touches every row and column.

    Raises
    ------
    InfeasibleMaskError
        When the kept count cannot cover all rows and columns.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    rows, cols = obs.complete.shape
    n_keep = math.ceil(keep_fraction * rows * cols)
    if n_keep < max(rows, cols):
        raise InfeasibleMaskError(
            f"{n_keep} observations cannot cover {rows} rows and {cols} columns"
        )
    rng = np.random.default_rng(seed)
    if n_keep == rows * cols:
        mask = SamplingMask.full(rows, cols)
    else:
        mask = None
        for _ in range(_MASK_ATTEMPTS):
            candidate = _draw_mask(rows, cols, n_keep, rng)
            if candidate.covers_all_lines():
                mask = candidate
                break
        if mask is None:
            mask = _constructive_mask(rows, cols, n_keep, rng)
    return ObservationSet(
        complete=obs.complete,
        mask=mask,
        incomplete=project_mask(obs.complete, mask),
    )


def coarse_channel(obs: ObservationSet, block: PilotBlock) -> np.ndarray:
    """Pseudo-inverse channel estimate from the masked observation.

    Unobserved entries are treated as zero; this is the no-completion
    baseline the two-phase estimator is compared against.
    """
    return (
        pseudo_inverse(block.w.conj().T)
        @ obs.incomplete
        @ pseudo_inverse(block.effective_precoder)
    )
