"""Rank-aware low-rank matrix completion.

Phase I of the estimation pipeline: singular-value based rank estimation
and an augmented-Lagrangian block-coordinate solver that completes a
masked observation matrix as a sum of rank-one factors with l1-shrunk
weights; the achieved rank is however many weights remain positive at
termination.  Carrying a rank hint from one time step to the next is
the harness's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSystemError, InfeasibleMaskError
from .frontend import ObservationSet
from .numerics import svd

# Consecutive zero-weight sweeps before a factor is dropped.
DROP_STREAK = 3


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
    return _energy_rank(svd(m).s, xi)


def _energy_rank(s: np.ndarray, xi: float) -> int:
    """The energy-rule count on descending singular values ``s``."""
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateSystemError("cannot estimate the rank of a zero matrix")
    energy = np.cumsum(s**2)
    return min(int(np.searchsorted(energy, xi * energy[-1])) + 1, s.size)


@dataclass
class SolverOptions:
    """Tunable parameters of the completion solver.

    ``None`` values resolve against the data at solve time: epsilon to
    1e-6 * ||Ytilde||_F and mu to 1/sqrt(max(rows, cols)).  Epsilon
    governs noiseless data only: a noisy fit cannot reach it, and the
    solver stops at the observation's noise level instead (see
    :func:`r1mc_complete`).  ``max_iters`` caps the sweeps either way.
    """

    epsilon: float | None = None
    mu: float | None = None
    max_iters: int = 500
    energy_ratio: float = 0.95
    # Extra factors granted above the previous step's rank so an
    # understated rank can grow back; consumed by the harness, not the solver.
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
    row per sweep, plus one for the shrink-free refit when a factor survives.
    """

    completed: np.ndarray
    rank: int
    iterations: int
    final_residual: float
    converged: bool
    trace: tuple = ()


def _update_factor(residual, u, v):
    """One power step of a rank-one factor against the deflated residual.

    Returns ``(u, v, a)`` with ``v = R^H u / ||R^H u||``, then
    ``u = R v / ||R v||`` and ``a = ||R v||``; a zero norm returns weight
    0 and keeps the vectors not yet replaced.  Factors start each sweep
    warm, so one step per sweep is enough.

    Exactness contract: on a residual of at least 2 x 2, every result is
    bit-identical to the same step written with ``@`` and
    ``np.linalg.norm``.  Only numpy dispatch is shed: the norm is numpy's
    own sqrt(re.re + im.im), and ``.dot`` reaches the same zgemv as ``@``
    (on a single row or column the two round differently).
    """
    v_new = residual.conj().T.dot(u)
    nv = math.sqrt(v_new.real.dot(v_new.real) + v_new.imag.dot(v_new.imag))
    if nv == 0.0:
        return u, v, 0.0
    v_new /= nv
    u_new = residual.dot(v_new)
    nu = math.sqrt(u_new.real.dot(u_new.real) + u_new.imag.dot(u_new.imag))
    if nu == 0.0:
        return u, v_new, 0.0
    u_new /= nu
    return u_new, v_new, nu


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

    Per sweep, every active factor q is refit by one power step
    (:func:`_update_factor`) against the running deflated residual of the
    multiplier-augmented iterate, its weight soft-shrunk by mu; observed
    entries are then re-imposed and the multiplier takes a dual-ascent
    step of size mu.  A factor whose weight stays zero for
    ``DROP_STREAK`` consecutive sweeps is dropped.  A final shrink-free
    pass re-fits the weights on the surviving support.

    The solve converges at the first sweep where either test holds:

    - the observed-entry fit ``feas = ||P_Omega(Z - Ytilde)||_F`` and the
      iterate's change are both at most epsilon (noiseless data);
    - ``feas`` is at or below the noise level
      ``sqrt(|Omega| * incomplete.noise_var)`` and no lower than the
      previous sweep's.  This is the discrepancy principle: past the
      noise level the dual ascent only fits the noise.  Requiring the fit
      to have stopped improving lets the shrinkage prune spare factors
      first, which solves with many factors need when they reach the
      noise level within a sweep or two.  With ``noise_var`` 0 it fires
      only on an exact fit.

    Otherwise the solve ends unconverged after ``opts.max_iters`` sweeps,
    or when every factor has been dropped.

    Parameters
    ----------
    incomplete : ObservationSet
        Masked observation; the mask must touch every row and column.
        Its ``noise_var`` sets the noise level the stop test uses.
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
    # Expected norm of the noise on the observed entries.
    noise_floor = math.sqrt(mask.count * incomplete.noise_var)
    mu = opts.mu if opts.mu is not None else 1.0 / math.sqrt(max(rows, cols))

    init = svd(y_tilde)
    cap = min(rows, cols)
    if rank_hint is not None:
        if rank_hint < 1:
            raise ConfigError(f"rank hint must be >= 1, got {rank_hint}")
        n_factors = min(rank_hint, cap)
    else:
        n_factors = min(_energy_rank(init.s, opts.energy_ratio), cap)

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
    feas_prev = math.inf

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
        # The gap is zero off the mask and (y_tilde - z) on it, so its
        # norm is feas: the augmented Lagrangian needs no second norm.
        gap = y_new - z
        objective = (
            0.5 * feas**2
            + float(np.real(np.vdot(state.multiplier, gap)))
            + mu * float(np.sum(np.abs(state.weights[state.active])))
        )
        state.multiplier = state.multiplier + mu * gap
        state.iterate = y_new

        expired = state.active & (zero_streak >= DROP_STREAK)
        if expired.any():
            state.active &= ~expired
        trace.append((iteration, objective, feas, state.active_rank))

        if feas <= eps and change <= eps:
            converged = True
            break
        if feas_prev <= feas <= noise_floor:
            converged = True
            break
        if not state.active.any():
            break
        feas_prev = feas

    if state.active.any():
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
