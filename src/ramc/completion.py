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
from .frontend import ObservationSet, covers_all_lines

# Consecutive zero-weight sweeps before a factor is dropped.
DROP_STREAK = 3
# Sweeps after which a solve that has not converged stops.
MAX_SWEEPS = 500
# Share of the Frobenius energy that the rank estimate retains.
ENERGY_RATIO = 0.95


def estimate_rank(m) -> int:
    """Estimate rank as the smallest k retaining ``ENERGY_RATIO`` of the
    Frobenius energy.

    Energy means squared singular values.  The trace-norm reading fails
    on noisy matrices: broadband noise inflates the unsquared tail until
    the retained fraction undershoots the ratio at the true rank.

    Raises
    ------
    DegenerateSystemError
        If the matrix is numerically zero.
    """
    return _energy_rank(np.linalg.svd(m, full_matrices=False, compute_uv=False))


def _energy_rank(s: np.ndarray) -> int:
    """The energy-rule count on descending singular values ``s``."""
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateSystemError("cannot estimate the rank of a zero matrix")
    energy = np.cumsum(s**2)
    return min(int(np.searchsorted(energy, ENERGY_RATIO * energy[-1])) + 1, s.size)


@dataclass(frozen=True)
class CompletionResult:
    """Output of the completion solver.

    ``completed`` sums the factors of positive weight, ``rank`` counts them
    and ``final_residual`` is ``||P_Omega(completed - Ytilde)||_F``.
    ``trace`` holds one (iteration, objective, feasibility, active rank) row
    per sweep, plus one for the shrink-free refit when a factor survives;
    a full mask returns the observation itself with an empty trace.
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


def r1mc_complete(incomplete: ObservationSet, rank_hint: int | None = None) -> CompletionResult:
    """Complete a masked matrix as an l1-regularised sum of rank-one factors.

    Per sweep, every active factor q is refit by one power step
    (:func:`_update_factor`) against the running deflated residual of the
    multiplier-augmented iterate, its weight soft-shrunk by
    mu = 1/sqrt(max(rows, cols)); observed entries are then re-imposed
    and the multiplier takes a dual-ascent step of size mu.  A factor
    whose weight stays zero for ``DROP_STREAK`` consecutive sweeps is
    dropped and keeps weight 0, so the model is always the factors of
    positive weight.

    A final shrink-free pass re-fits the weights on the surviving support:
    each active factor takes the real inner product of its outer-product
    atom with the running deflated iterate, and a non-positive fit retires
    it with weight 0.  Left and right vectors stay fixed, so the pass
    removes the shrinkage bias without moving the subspace.

    The solve converges at the first sweep where either test holds:

    - the observed-entry fit ``feas = ||P_Omega(Z - Ytilde)||_F`` and the
      iterate's change are both at most 1e-6 * ||Ytilde||_F (noiseless data);
    - ``feas`` is at or below the noise level
      ``sqrt(|Omega| * incomplete.noise_var)`` and no lower than the
      previous sweep's.  This is the discrepancy principle: past the
      noise level the dual ascent only fits the noise.  Requiring the fit
      to have stopped improving lets the shrinkage prune spare factors
      first, which solves with many factors need when they reach the
      noise level within a sweep or two.  With ``noise_var`` 0 it fires
      only on an exact fit.

    Otherwise the solve ends unconverged after ``MAX_SWEEPS`` sweeps, or
    when every factor has been dropped.

    Parameters
    ----------
    incomplete : ObservationSet
        Masked observation; the mask must touch every row and column.
        Its ``noise_var`` sets the noise level the stop test uses.
    rank_hint : int, optional
        Number of rank-one factors to allocate.  Defaults to the
        energy-rule rank of the zero-filled observation; the harness adds
        its ``RANK_HEADROOM`` to its own hints, not here.

    Returns
    -------
    CompletionResult
        The low-rank completion, achieved rank, iteration count,
        final observed-entry residual, convergence flag and trace.
    """
    observed = incomplete.mask
    y_tilde = incomplete.incomplete.astype(np.complex128, copy=True)
    rows, cols = y_tilde.shape
    if not covers_all_lines(observed):
        raise InfeasibleMaskError("mask must touch every row and column")
    if observed.all():
        # A full mask pins every entry, so the constraint is the answer.
        return CompletionResult(
            completed=y_tilde,
            rank=int(np.linalg.matrix_rank(y_tilde)),
            iterations=0,
            final_residual=0.0,
            converged=True,
        )

    eps = 1e-6 * float(np.linalg.norm(y_tilde))
    # Expected norm of the noise on the observed entries.
    noise_floor = math.sqrt(np.count_nonzero(observed) * incomplete.noise_var)
    mu = 1.0 / math.sqrt(max(rows, cols))

    u, s, vh = np.linalg.svd(y_tilde, full_matrices=False)
    cap = min(rows, cols)
    if rank_hint is not None:
        if rank_hint < 1:
            raise ConfigError(f"rank hint must be >= 1, got {rank_hint}")
        n_factors = min(rank_hint, cap)
    else:
        n_factors = min(_energy_rank(s), cap)

    left = u[:, :n_factors].copy()
    right = vh[:n_factors].conj().T.copy()
    weights = s[:n_factors].copy()
    active = np.ones(n_factors, dtype=bool)
    zero_streak = np.zeros(n_factors, dtype=int)
    # Neither array is written in place, so the iterate can start as y_tilde.
    multiplier = np.zeros_like(y_tilde)
    iterate = y_tilde

    trace = []
    feas_prev = math.inf

    for iteration in range(1, MAX_SWEEPS + 1):
        residual = iterate + multiplier
        for q in np.flatnonzero(active):
            u, v, a = _update_factor(residual, left[:, q], right[:, q])
            w = max(a - mu, 0.0)
            left[:, q] = u
            right[:, q] = v
            weights[q] = w
            if w > 0.0:
                residual -= w * np.outer(u, v.conj())
                zero_streak[q] = 0
            else:
                zero_streak[q] += 1

        # A factor leaves `active` only after DROP_STREAK sweeps at weight 0,
        # so the model is the factors of positive weight; with none,
        # (rows x 0) @ (0 x cols) is the zero matrix.
        idx = np.flatnonzero(weights > 0.0)
        z = (left[:, idx] * weights[idx]) @ right[:, idx].conj().T
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        y_new = np.where(observed, y_tilde, z)
        change = float(np.linalg.norm(y_new - iterate))
        # The gap is zero off the mask and (y_tilde - z) on it, so its
        # norm is feas: the augmented Lagrangian needs no second norm.
        gap = y_new - z
        objective = (
            0.5 * feas**2
            + float(np.real(np.vdot(multiplier, gap)))
            + mu * float(np.sum(np.abs(weights[active])))
        )
        multiplier = multiplier + mu * gap
        iterate = y_new

        active &= zero_streak < DROP_STREAK
        trace.append((iteration, objective, feas, idx.size))

        converged = (feas <= eps and change <= eps) or feas_prev <= feas <= noise_floor
        if converged or not active.any():
            break
        feas_prev = feas

    if active.any():
        residual = iterate.copy()
        for q in np.flatnonzero(active):
            u, v = left[:, q], right[:, q]
            a = float(np.real(u.conj() @ residual @ v))
            if a > 0.0:
                weights[q] = a
                residual -= a * np.outer(u, v.conj())
            else:
                weights[q] = 0.0
        idx = np.flatnonzero(weights > 0.0)
        z = (left[:, idx] * weights[idx]) @ right[:, idx].conj().T
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        fit = 0.5 * float(np.linalg.norm(np.where(observed, y_tilde, z) - z) ** 2)
        trace.append((iteration + 1, fit, feas, idx.size))

    # No weight changes after the last model, so z and feas are the result.
    return CompletionResult(
        completed=z,
        rank=idx.size,
        iterations=iteration,
        final_residual=feas,
        converged=converged,
        trace=tuple(trace),
    )
