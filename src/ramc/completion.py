"""Rank-aware low-rank matrix completion.

Phase I of the estimation pipeline: singular-value based rank estimation,
a rank tracker that carries the previous corrected rank across time
steps, and an augmented-Lagrangian block-coordinate solver that
completes a masked observation matrix as a sum of rank-one factors with
l1-shrunk weights; the achieved rank is however many weights remain
positive at termination.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ColdStartError,
    ConfigError,
    DegenerateSystemError,
    InfeasibleMaskError,
)
from .frontend import ObservationSet
from .numerics import svd

# Consecutive zero-weight sweeps before a factor is dropped.
DROP_STREAK = 3

# Inner power-iteration budget per factor per sweep.
_INNER_CAP = 40
_INNER_TOL = 1e-12


def estimate_rank(m, xi: float = 0.95) -> int:
    """Estimate rank as the smallest k retaining xi of the Frobenius energy.

    Energy means squared singular values.  The trace-norm reading fails
    on noisy matrices: broadband noise inflates the unsquared tail until
    the retained fraction undershoots xi at the true rank.

    Parameters
    ----------
    m : array_like
        Matrix whose singular spectrum is analysed.
    xi : float
        Retained-energy ratio in (0, 1].

    Raises
    ------
    DegenerateSystemError
        If the matrix is numerically zero.
    """
    if not 0.0 < xi <= 1.0:
        raise ConfigError(f"energy ratio must lie in (0, 1], got {xi}")
    s = svd(m).s
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateSystemError("cannot estimate the rank of a zero matrix", rank=0)
    energy = np.cumsum(s**2)
    return min(int(np.searchsorted(energy, xi * energy[-1])) + 1, s.size)


@dataclass
class RankTracker:
    """Window of corrected rank values; predicts the most recent one."""

    rank_cap: int
    capacity: int = 64
    history: deque = field(init=False)

    def __post_init__(self):
        if self.rank_cap < 1:
            raise ConfigError("rank cap must be >= 1")
        if self.capacity < 1:
            raise ConfigError("history capacity must be >= 1")
        self.history = deque(maxlen=self.capacity)

    def record(self, value: int) -> None:
        """Append a corrected rank observation."""
        self.history.append(int(value))


def persistence_tracker(rank_cap: int, capacity: int = 64) -> RankTracker:
    """Tracker that predicts the previous corrected rank."""
    return RankTracker(rank_cap=rank_cap, capacity=capacity)


def predict_rank(tracker: RankTracker) -> int:
    """Last recorded rank, clamped to [1, cap].

    Raises
    ------
    ColdStartError
        When nothing has been recorded yet; callers fall back to a
        data-driven estimate.
    """
    if not tracker.history:
        raise ColdStartError("tracker has no recorded rank yet")
    return int(np.clip(tracker.history[-1], 1, tracker.rank_cap))


@dataclass
class SolverOptions:
    """Tunable parameters of the completion solver.

    ``None`` values resolve against the data at solve time: epsilon to
    1e-6 * ||Ytilde||_F and mu to 1/sqrt(max(rows, cols)).
    """

    epsilon: float | None = None
    mu: float | None = None
    max_iters: int = 500
    energy_ratio: float = 0.95
    refine_without_l1: bool = True
    # Extra factors granted above tracker predictions so an understated
    # rank can grow back; consumed by pipeline drivers, not the solver.
    rank_headroom: int = 2

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.mu is not None and self.mu < 0:
            raise ConfigError("mu must be non-negative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not 0.0 < self.energy_ratio <= 1.0:
            raise ConfigError("energy_ratio must lie in (0, 1]")
        if self.rank_headroom < 0:
            raise ConfigError("rank headroom must be non-negative")


@dataclass
class FactorizationState:
    """Mutable solver state: rank-one factors, multiplier and iterate."""

    left: np.ndarray
    right: np.ndarray
    weights: np.ndarray
    multiplier: np.ndarray
    iterate: np.ndarray
    active: np.ndarray

    def model(self) -> np.ndarray:
        """Current low-rank reconstruction from the active factors."""
        idx = np.flatnonzero(self.active & (self.weights > 0.0))
        if idx.size == 0:
            return np.zeros_like(self.iterate)
        return (self.left[:, idx] * self.weights[idx]) @ self.right[:, idx].conj().T

    @property
    def active_rank(self) -> int:
        return int(np.sum(self.active & (self.weights > 0.0)))


@dataclass(frozen=True)
class CompletionResult:
    """Output of the completion solver.

    ``trace`` holds one (iteration, objective, feasibility, active rank)
    row per sweep, plus one for the shrink-free refit when it runs.
    """

    completed: np.ndarray
    rank: int
    iterations: int
    final_residual: float
    converged: bool
    trace: tuple = ()


def _lagrangian(y_hat, z, multiplier, mu_eff, weights) -> float:
    gap = y_hat - z
    value = 0.5 * np.linalg.norm(gap) ** 2
    value += float(np.real(np.vdot(multiplier, gap)))
    value += mu_eff * float(np.sum(np.abs(weights)))
    return value


def _update_factor(residual, u, v):
    """Power-iterate one rank-one factor against the deflated residual."""
    a_prev = -1.0
    a = 0.0
    for _ in range(_INNER_CAP):
        v_new = residual.conj().T @ u
        nv = np.linalg.norm(v_new)
        if nv == 0.0:
            return u, v, 0.0
        v = v_new / nv
        u_new = residual @ v
        nu = np.linalg.norm(u_new)
        if nu == 0.0:
            return u, v, 0.0
        u = u_new / nu
        a = nu
        if abs(a - a_prev) <= _INNER_TOL * a:
            break
        a_prev = a
    return u, v, a


def _full_mask_result(y_tilde: np.ndarray) -> CompletionResult:
    # A full mask pins every entry, so the constraint is the answer.
    return CompletionResult(
        completed=y_tilde.copy(),
        rank=svd(y_tilde).rank,
        iterations=0,
        final_residual=0.0,
        converged=True,
    )


def _refit_weights(state: FactorizationState) -> None:
    """One shrink-free weight pass over the frozen support.

    Each active factor takes the real inner product of its outer-product
    atom with the running deflated iterate; non-positive fits retire the
    factor.  Left and right vectors stay fixed, so the pass removes the
    shrinkage bias without moving the subspace.
    """
    residual = state.iterate.copy()
    for q in np.flatnonzero(state.active):
        u = state.left[:, q]
        v = state.right[:, q]
        a = float(np.real(u.conj() @ residual @ v))
        if a > 0.0:
            state.weights[q] = a
            residual -= a * np.outer(u, v.conj())
        else:
            state.weights[q] = 0.0
            state.active[q] = False


def r1mc_complete(
    incomplete: ObservationSet,
    rank_hint: int | None = None,
    opts: SolverOptions | None = None,
) -> CompletionResult:
    """Complete a masked matrix as an l1-regularised sum of rank-one factors.

    Per sweep, every active factor q is refit against the running deflated
    residual of the multiplier-augmented iterate (v from Y^H u, u from Y v,
    both normalised), its weight soft-shrunk by mu; observed entries are
    then re-imposed and the multiplier takes a dual-ascent step of size
    mu.  A factor whose weight stays zero for ``DROP_STREAK`` consecutive
    sweeps is dropped.  With ``refine_without_l1`` a final shrink-free
    pass re-fits the weights on the surviving support.

    Parameters
    ----------
    incomplete : ObservationSet
        Masked observation; the mask must touch every row and column.
    rank_hint : int, optional
        Number of rank-one factors to allocate.  Defaults to the
        singular-value rank estimate of the zero-filled observation;
        the harness adds ``opts.rank_headroom`` to its own hints, not here.
    opts : SolverOptions, optional

    Returns
    -------
    CompletionResult
        The low-rank completion, achieved rank, iteration count,
        final observed-entry residual, convergence flag and trace.
    """
    opts = opts if opts is not None else SolverOptions()
    mask = incomplete.mask
    y_tilde = incomplete.incomplete.astype(np.complex128, copy=True)
    rows, cols = y_tilde.shape
    if not mask.covers_all_lines():
        raise InfeasibleMaskError("mask must touch every row and column")
    if mask.count == mask.observed.size:
        return _full_mask_result(y_tilde)

    norm_y = np.linalg.norm(y_tilde)
    eps = opts.epsilon if opts.epsilon is not None else 1e-6 * norm_y
    mu = opts.mu if opts.mu is not None else 1.0 / math.sqrt(max(rows, cols))

    init = svd(y_tilde)
    cap = min(rows, cols)
    if rank_hint is not None:
        if rank_hint < 1:
            raise ConfigError(f"rank hint must be >= 1, got {rank_hint}")
        n_factors = min(rank_hint, cap)
    else:
        n_factors = min(estimate_rank(y_tilde, opts.energy_ratio), cap)

    state = FactorizationState(
        left=init.u[:, :n_factors].copy(),
        right=init.v[:, :n_factors].copy(),
        weights=init.s[:n_factors].copy(),
        multiplier=np.zeros_like(y_tilde),
        iterate=y_tilde.copy(),
        active=np.ones(n_factors, dtype=bool),
    )
    zero_streak = np.zeros(n_factors, dtype=int)

    observed = mask.observed
    trace = []
    converged = False
    iteration = 0

    for iteration in range(1, opts.max_iters + 1):
        residual = state.iterate + state.multiplier
        for q in np.flatnonzero(state.active):
            u, v, a = _update_factor(residual, state.left[:, q], state.right[:, q])
            w = max(a - mu, 0.0)
            state.left[:, q] = u
            state.right[:, q] = v
            state.weights[q] = w
            if w > 0.0:
                residual -= w * np.outer(u, v.conj())
                zero_streak[q] = 0
            else:
                zero_streak[q] += 1

        z = state.model()
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        y_new = np.where(observed, y_tilde, z)
        change = float(np.linalg.norm(y_new - state.iterate))
        l_after = _lagrangian(
            y_new, z, state.multiplier, mu, state.weights[state.active]
        )
        state.multiplier = state.multiplier + mu * (y_new - z)
        state.iterate = y_new

        expired = state.active & (zero_streak >= DROP_STREAK)
        if expired.any():
            state.active &= ~expired
        trace.append((iteration, l_after, feas, state.active_rank))

        if feas <= eps and change <= eps:
            converged = True
            break
        if not state.active.any():
            break

    if opts.refine_without_l1 and state.active.any():
        _refit_weights(state)
        z = state.model()
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        state.iterate = np.where(observed, y_tilde, z)
        fit = 0.5 * float(np.linalg.norm(state.iterate - z) ** 2)
        trace.append((iteration + 1, fit, feas, state.active_rank))

    completed = state.model()
    final_residual = float(np.linalg.norm((completed - y_tilde)[observed]))
    return CompletionResult(
        completed=completed,
        rank=state.active_rank,
        iterations=iteration,
        final_residual=final_residual,
        converged=converged,
        trace=tuple(trace),
    )
