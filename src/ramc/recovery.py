"""Rank-constrained greedy sparse recovery of angular-domain gains.

Phase II of the pipeline: vectorise the completed pilot observation, run
batch orthogonal matching pursuit against the Kronecker steering
dictionary composed with the pilot frontend, with the sparsity budget
set by the Phase-I rank estimate, and map the recovered support back to
angle/gain triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import AngularDictionary
from .errors import ConfigError, DegenerateSystemError, ShapeError
from .frontend import PilotBlock, measurement_matrix
from .numerics import kron, vec

# Correlations below this relative level stop the pursuit: the residual
# is numerically inside the span of the selected columns.
_CORRELATION_FLOOR = 1e-13
# The pursuit stops once its residual falls to this fraction of ||y||.
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SparseGainEstimate:
    """Recovered sparse angular gains.

    ``support`` holds the selected atom (dictionary column) indices in
    selection order, ``gains`` the least-squares coefficients with one
    row per atom and one column per target, and ``parameter_set``
    (aoa, aod, gain) triplets when grid angles are known (aod None and
    the gain row for an AoA-only pursuit).
    """

    gains: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    parameter_set: tuple = ()


def build_dictionary(dictionary: AngularDictionary) -> np.ndarray:
    """Kronecker dictionary whose columns span vec(a_ms @ hbar @ a_bs^H).

    Column j*L1 + i equals kron(conj(a_bs[:, j]), a_ms[:, i]); with
    column-stacking vec this matches conj(A_bs) (x) A_ms.
    """
    return kron(dictionary.a_bs.conj(), dictionary.a_ms)


def _pursuit(targets, dictionary, cap: int) -> SparseGainEstimate:
    """Gram-domain greedy pursuit shared by OMP (1 column) and SOMP (many).

    Atoms are scaled to unit norm for selection, else low-norm atoms
    (the pilot frontend scales composed atoms unevenly) are never
    selected; the gains are scaled back.  The pursuit stops after
    ``cap`` atoms, once the residual falls to ``_RESIDUAL_TOL *
    ||targets||``, or when no atom correlates with the residual.
    """
    y = np.asarray(targets, dtype=np.complex128)
    if y.ndim == 1:
        y = y[:, None]
    d = np.asarray(dictionary, dtype=np.complex128)
    if d.shape[0] != y.shape[0]:
        raise ShapeError(f"dictionary rows {d.shape[0]} != target rows {y.shape[0]}")
    if cap < 1:
        raise ConfigError("sparsity cap must be >= 1")
    n = d.shape[1]
    norms = np.linalg.norm(d, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateSystemError("dictionary holds a zero column")
    d_n = d / norms
    gram = d_n.conj().T @ d_n
    h0 = d_n.conj().T @ y
    residual = scale = float(np.linalg.norm(y))

    support: list[int] = []
    coeffs = np.zeros((0, y.shape[1]), dtype=np.complex128)
    while len(support) < min(cap, n) and residual > _RESIDUAL_TOL * scale:
        corr = h0 - gram[:, support] @ coeffs if support else h0.copy()
        score = np.linalg.norm(corr, axis=1)
        if support:
            score[support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= _CORRELATION_FLOOR * max(scale, 1.0):
            break
        support.append(best)
        gram_s = gram[np.ix_(support, support)]
        if np.linalg.cond(gram_s) > 1e12:
            raise DegenerateSystemError(f"selected columns {support} are numerically dependent")
        try:
            coeffs = np.linalg.solve(gram_s, h0[support, :])
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(
                f"selected columns {support} are linearly dependent"
            ) from exc
        if not np.all(np.isfinite(coeffs)):
            raise DegenerateSystemError(f"selected columns {support} are numerically dependent")
        # Taken directly: the Gram-domain sqrt(||y||^2 - <c, D_S^H y>) is
        # a difference of squares, good only to ~sqrt(eps) * ||y||.
        residual = float(np.linalg.norm(y - d_n[:, support] @ coeffs))

    gains = np.zeros((n, y.shape[1]), dtype=np.complex128)
    if support:
        # Undo the column normalisation on the recovered coefficients.
        gains[support, :] = coeffs / norms[support][:, None]
    return SparseGainEstimate(gains=gains, support=tuple(support), residual_norm=residual)


def batch_omp(target, dictionary, sparsity_cap: int) -> SparseGainEstimate:
    """Orthogonal matching pursuit with precomputed Gram updates.

    Correlations are refreshed from the Gram matrix instead of an
    explicit residual; coefficients are least-squares refit on the
    support each step.  Selection takes the largest absolute correlation,
    breaking ties toward the lowest column index.  ``target`` is
    flattened to one column; ``gains`` has one row per atom.
    """
    return _pursuit(np.reshape(target, (-1, 1)), dictionary, sparsity_cap)


def somp_baseline(targets, dictionary, sparsity_cap: int) -> SparseGainEstimate:
    """Simultaneous OMP over multiple measurement vectors.

    Atom scores aggregate correlations across target columns by their
    l2 norm; all targets share one support.  With a single column this
    reduces exactly to :func:`batch_omp`.
    """
    return _pursuit(targets, dictionary, sparsity_cap)


def estimate_phase2(
    completed,
    block: PilotBlock,
    dictionary: AngularDictionary,
    rank: int | None,
) -> tuple[SparseGainEstimate, np.ndarray]:
    """Sparse angular recovery with a rank-derived sparsity budget.

    The pursuit matches the vectorised completed observation against the
    Kronecker steering dictionary composed with the pilot frontend,
    ``measurement_matrix(block) @ build_dictionary(dictionary)``.

    Parameters
    ----------
    completed : array_like
        Completed pilot observation (m_ms x pilot_length).
    rank : int or None
        Phase-I rank; the sparsity cap is rank**2.  None sets no cap, so
        the pursuit stops on its residual alone.

    Returns
    -------
    (SparseGainEstimate, numpy.ndarray)
        The sparse estimate with its parameter set filled in and the
        reconstructed channel matrix a_ms @ gains @ a_bs^H.
    """
    if rank is not None and rank < 1:
        raise ConfigError(f"rank {rank} yields an empty sparsity budget")
    d = measurement_matrix(block) @ build_dictionary(dictionary)
    estimate = batch_omp(vec(completed), d, d.shape[1] if rank is None else rank**2)
    # Atom j*L1 + i is grid cell (aoa i, aod j), column-stacking order.
    rows = dictionary.size_aoa
    params = tuple(
        (
            float(dictionary.grid_aoa[k % rows]),
            float(dictionary.grid_aod[k // rows]),
            complex(estimate.gains[k, 0]),
        )
        for k in estimate.support
    )
    grid = estimate.gains.reshape((rows, dictionary.size_aod), order="F")
    h = dictionary.a_ms @ grid @ dictionary.a_bs.conj().T
    return replace(estimate, parameter_set=params), h
