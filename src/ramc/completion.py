"""Rank-aware low-rank matrix completion.

Phase I of the estimation pipeline: the rank of each observation, and
an augmented-Lagrangian block-coordinate solver that completes a masked
observation matrix as a sum of rank-one factors with l1-shrunk weights;
the achieved rank is however many weights remain positive at
termination.  The rank is :func:`estimate_rank`, the threshold rank of
the pilot least-squares fit of :func:`pilot_fit`, taken per observation
with no history, and the harness hints every solve but ``fixed_rank``'s
with it.
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


def pilot_fit(incomplete, masks, steps, pilots):
    """Fit every row of the pilot observations Y = X·S + N by least squares.

    ``incomplete`` is a (B, rows, cols) stack of zero fills, ``masks`` a
    (K, rows, cols) stack of boolean masks, ``steps[b]`` the index of slot
    b's mask and ``pilots`` the (n, cols) pilot matrix S.  Row i is fitted
    on its observed entries Ω_i: x̂_i = y_i[Ω_i]·S_Ωᴴ·G_i, with
    G_i = (S_Ω·S_Ωᴴ)⁺ built once per mask for every slot that shares it.
    The fit's residual is the row's noise projected off the span of S_Ωᵀ,
    whatever X is, so σ̂² = Σ‖r_i‖² / Σ(|Ω_i| − n) over the rows with
    |Ω_i| > n estimates the noise variance; a row with |Ω_i| <= n is fitted
    exactly and adds no degree of freedom.  x̂_i's noise has covariance
    σ²·G_i, so the noise gain g is the mean diagonal of a mask's G_i.

    Returns ``(x_hat, noise_var, gain)``: the (B, rows, n) fits and one
    σ̂² and g per slot, each slot bit for bit as in a stack of one.  A mask
    that leaves no degree of freedom raises :class:`InfeasibleMaskError`.
    """
    n = len(pilots)
    counts = masks.sum(axis=-1)
    dof = np.maximum(counts - n, 0).sum(axis=-1)
    if not dof.all():
        raise InfeasibleMaskError(
            f"no row observes more than {n} entries, so the noise level cannot be estimated")
    sampled = pilots * masks[:, :, None, :]
    gram = sampled @ sampled.conj().swapaxes(-1, -2)
    inverse = np.linalg.pinv(gram, rcond=1e-12, hermitian=True)
    diagonals = np.diagonal(inverse, axis1=-2, axis2=-1).real
    gain = diagonals.reshape(len(masks), -1).mean(axis=-1)
    x_hat = ((incomplete @ pilots.conj().T)[:, :, None, :] @ inverse[steps])[:, :, 0, :]
    fitted = (masks & (counts > n)[:, :, None])[steps]
    residual = np.where(fitted, incomplete - x_hat @ pilots, 0.0).reshape(len(x_hat), -1)
    noise_var = np.vecdot(residual, residual).real / dof[steps]
    return x_hat, noise_var, gain[steps]


def estimate_rank(incomplete, masks, steps, pilots) -> list:
    """The rank of each observation of a stack, as the count of the
    singular values of its :func:`pilot_fit` X̂ above the noise bulk edge
    σ̂·√g·(√rows + √cols), at least 1.  The arguments are
    :func:`pilot_fit`'s.

    An i.i.d. noise matrix of variance σ²g has its largest singular value
    near that edge (Gavish & Donoho, "The Optimal Hard Threshold for
    Singular Values is 4/√3", IEEE Trans. Inf. Theory 2014).  The edge is
    floored at ``np.linalg.matrix_rank``'s roundoff tolerance, so a
    noiseless fit keeps its numerical rank.  Returns one entry per slot:
    its rank, or the :class:`DegenerateSystemError` of a zero fit, which
    fails that slot alone; a mask that leaves no degree of freedom raises
    :func:`pilot_fit`'s :class:`InfeasibleMaskError`.
    """
    x_hat, noise_var, gain = pilot_fit(incomplete, masks, steps, pilots)
    s = np.linalg.svd(x_hat, compute_uv=False)
    rows, cols = x_hat.shape[1:]
    edge = np.sqrt(noise_var * gain) * (math.sqrt(rows) + math.sqrt(cols))
    floor = s[:, 0] * max(rows, cols) * np.finfo(s.dtype).eps
    counts = np.count_nonzero(s > np.maximum(edge, floor)[:, None], axis=-1)
    return [
        max(int(count), 1) if sv[0] > 0.0
        else DegenerateSystemError("cannot estimate the rank of a zero matrix")
        for count, sv in zip(counts, s)
    ]


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


def _norm(x) -> float:
    """``np.linalg.norm`` of a complex vector, bit for bit: numpy's own
    sqrt(re.re + im.im) without its argument handling."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _update_factor(residual, u, vh):
    """One power step of a rank-one factor u vᴴ against the deflated residual.

    Returns ``(u, vh, a)`` with ``vh = uᴴR / ||uᴴR||``, then
    ``u = R v / ||R v||`` and ``a = ||R v||``; a zero norm returns weight
    0 and keeps the vectors not yet replaced.  Factors start each sweep
    warm, so one step per sweep is enough.

    Exactness contract: on a residual of at least 2 x 2, every result is
    bit-identical to the same step written with ``@`` and the norm
    ``sqrt(Re vdot(x, x))``.  Only numpy dispatch is shed: ``.dot``
    reaches the same zgemv as ``@`` (on a single row or column the two
    round differently), and the division is in place.  The norm is one
    zdotc, not ``np.linalg.norm``'s two ddots, so it may differ from that
    in the last bit.
    """
    vh_new = u.conj().dot(residual)
    nv = math.sqrt(np.vdot(vh_new, vh_new).real)
    if nv == 0.0:
        return u, vh, 0.0
    vh_new /= nv
    u_new = residual.dot(vh_new.conj())
    nu = math.sqrt(np.vdot(u_new, u_new).real)
    if nu == 0.0:
        return u, vh_new, 0.0
    u_new /= nu
    return u_new, vh_new, nu


def r1mc_complete(incomplete: ObservationSet, rank_hint: int) -> CompletionResult:
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

    Exactness contract: factor q is held as the contiguous rows
    ``left[q]`` (u), ``right_h[q]`` (vᴴ) and ``scaled[q]`` (w u, zero at
    weight 0), the residual is deflated by ``np.multiply.outer(w u, vᴴ)``,
    and the model is ``scaled.T @ right_h``, so the power steps round as
    :func:`_update_factor` states rather than as ``np.linalg.norm``.  ``feas``, and so ``final_residual``, is
    bit-identical to ``np.linalg.norm((completed - Ytilde)[mask])``: the
    observed entries are gathered by their flat indices and normed by
    numpy's own formula.  The trace's objective and the change test sum
    over the observed entries only, so they may differ from full-matrix
    sums in the last bits.

    Parameters
    ----------
    incomplete : ObservationSet
        Masked observation; the mask must touch every row and column.
        Its ``noise_var`` sets the noise level the stop test uses.
    rank_hint : int
        Number of rank-one factors to allocate, at least 1 and capped at
        min(rows, cols); the harness picks it.

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

    if rank_hint < 1:
        raise ConfigError(f"rank hint must be >= 1, got {rank_hint}")
    u, _, vh = np.linalg.svd(y_tilde, full_matrices=False)
    n_factors = min(rank_hint, rows, cols)

    left = np.ascontiguousarray(u[:, :n_factors].T)
    right_h = vh[:n_factors].copy()
    scaled = np.zeros_like(left)
    weights = [0.0] * n_factors
    zero_streak = [0] * n_factors
    active = list(range(n_factors))
    at = np.flatnonzero(observed)  # flat indices of the observed entries
    y_seen = y_tilde.take(at)
    # The multiplier is zero off the mask; ``m_seen`` is its observed part.
    # The iterate starts as y_tilde, which is never written in place.
    multiplier = np.zeros_like(y_tilde)
    m_seen = np.zeros_like(y_seen)
    iterate = y_tilde

    trace = []
    feas_prev = math.inf

    for iteration in range(1, MAX_SWEEPS + 1):
        residual = iterate + multiplier
        for q in active:
            u, v_h, a = _update_factor(residual, left[q], right_h[q])
            left[q], right_h[q] = u, v_h
            w = a - mu
            if w > 0.0:
                scaled[q] = w_u = w * u
                residual -= np.multiply.outer(w_u, v_h)
                weights[q], zero_streak[q] = w, 0
            else:
                scaled[q] = weights[q] = 0.0
                zero_streak[q] += 1

        # A factor leaves `active` only after DROP_STREAK sweeps at weight 0,
        # so the model is the factors of positive weight.  The others'
        # ``scaled`` rows are zero, and exact zeros leave the product's sums
        # as they are.
        rank = sum(weights[q] > 0.0 for q in active)
        z = scaled.T.dot(right_h)
        misfit = z.take(at) - y_seen
        feas = _norm(misfit)
        y_new = np.where(observed, y_tilde, z)
        # The gap y_new - z is zero off the mask and -misfit on it, so its
        # norm is feas: the augmented Lagrangian needs no second norm.
        objective = (
            0.5 * feas**2
            - float(np.vdot(m_seen, misfit).real)
            + mu * sum(weights[q] for q in active)
        )
        # The iterate's change is needed by the noiseless test alone.
        converged = feas_prev <= feas <= noise_floor or (
            feas <= eps and _norm((y_new - iterate).ravel()) <= eps
        )
        m_seen = m_seen - mu * misfit
        multiplier.put(at, m_seen)
        iterate = y_new

        active = [q for q in active if zero_streak[q] < DROP_STREAK]
        trace.append((iteration, objective, feas, rank))

        if converged or not active:
            break
        feas_prev = feas

    if active:
        residual = iterate.copy()
        for q in active:
            u, v_h = left[q], right_h[q]
            a = float(np.vdot(v_h, u.conj().dot(residual)).real)
            if a > 0.0:
                scaled[q] = w_u = a * u
                residual -= np.multiply.outer(w_u, v_h)
                weights[q] = a
            else:
                scaled[q] = weights[q] = 0.0
        rank = sum(weights[q] > 0.0 for q in active)
        z = scaled.T.dot(right_h)
        feas = _norm(z.take(at) - y_seen)
        trace.append((iteration + 1, 0.5 * feas**2, feas, rank))

    # No weight changes after the last model, so z and feas are the result.
    return CompletionResult(
        completed=z,
        rank=rank,
        iterations=iteration,
        final_residual=feas,
        converged=converged,
        trace=tuple(trace),
    )
