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


@dataclass(frozen=True)
class OmpOptions:
    """Stopping controls for the pursuit."""

    sparsity_cap: int | None = None
    residual_tol: float | None = None

    def __post_init__(self):
        if self.sparsity_cap is not None and self.sparsity_cap < 1:
            raise ConfigError("sparsity cap must be >= 1")
        if self.residual_tol is not None and self.residual_tol < 0:
            raise ConfigError("residual tolerance must be non-negative")


@dataclass(frozen=True)
class SparseGainEstimate:
    """Recovered sparse angular gains.

    ``gains`` holds least-squares coefficients on the dictionary grid,
    ``support`` the selected (aoa index, aod index) pairs in selection
    order, ``selection_order`` the same support as flat column indices,
    and ``parameter_set`` (aoa, aod, gain) triplets when grid angles are
    known.
    """

    gains: np.ndarray
    support: tuple[tuple[int, int], ...]
    selection_order: tuple[int, ...]
    residual_norm: float
    parameter_set: tuple = ()


def build_dictionary(dictionary: AngularDictionary) -> np.ndarray:
    """Kronecker dictionary whose columns span vec(a_ms @ hbar @ a_bs^H).

    Column j*L1 + i equals kron(conj(a_bs[:, j]), a_ms[:, i]); with
    column-stacking vec this matches conj(A_bs) (x) A_ms.
    """
    return kron(dictionary.a_bs.conj(), dictionary.a_ms)


def _solve_support(gram_s, h0_s, support):
    try:
        coeffs = np.linalg.solve(gram_s, h0_s)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(f"selected columns {support} are linearly dependent") from exc
    if not np.all(np.isfinite(coeffs)):
        raise DegenerateSystemError(f"selected columns {support} are numerically dependent")
    return coeffs


def _pursuit(targets: np.ndarray, dictionary: np.ndarray, cap: int, tol: float):
    """Shared Gram-domain greedy loop for OMP (1 column) and SOMP (many)."""
    norms = np.linalg.norm(dictionary, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateSystemError("dictionary holds a zero column")
    d_n = dictionary / norms
    gram = d_n.conj().T @ d_n
    h0 = d_n.conj().T @ targets
    residual = scale = float(np.linalg.norm(targets))

    support: list[int] = []
    coeffs = np.zeros((0, targets.shape[1]), dtype=np.complex128)
    while len(support) < cap and residual > tol:
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
        coeffs = _solve_support(gram_s, h0[support, :], support)
        # Taken directly: the Gram-domain sqrt(||y||^2 - <c, D_S^H y>) is
        # a difference of squares, good only to ~sqrt(eps) * ||y||.
        residual = float(np.linalg.norm(targets - d_n[:, support] @ coeffs))
    # Undo the column normalisation on the recovered coefficients.
    if support:
        coeffs = coeffs / norms[support][:, None]
    return support, coeffs, residual


def _omp(y, dictionary, opts, grid_shape) -> SparseGainEstimate:
    """Validate, run the pursuit on the columns of ``y`` and place the gains.

    A single target fills the ``grid_shape`` gain grid (column k goes to
    cell (k % rows, k // rows)); several targets give one gain row per
    atom and one column per target.
    """
    opts = opts if opts is not None else OmpOptions()
    d = np.asarray(dictionary, dtype=np.complex128)
    if y.ndim == 1:
        y = y[:, None]
    if d.shape[0] != y.shape[0]:
        raise ShapeError(
            f"dictionary rows {d.shape[0]} != target rows {y.shape[0]}"
        )
    n = d.shape[1]
    shape = grid_shape if grid_shape is not None else (n, 1)
    if shape[0] * shape[1] != n:
        raise ShapeError(f"grid shape {shape} does not index {n} columns")
    cap = opts.sparsity_cap if opts.sparsity_cap is not None else n
    tol = (
        opts.residual_tol
        if opts.residual_tol is not None
        else 1e-8 * float(np.linalg.norm(y))
    )
    support, coeffs, residual = _pursuit(y, d, min(cap, n), tol)

    if y.shape[1] == 1:
        gains = np.zeros(shape, dtype=np.complex128)
        if support:
            idx = np.asarray(support)
            gains[idx % shape[0], idx // shape[0]] = coeffs[:, 0]
    else:
        gains = np.zeros((n, y.shape[1]), dtype=np.complex128)
        if support:
            gains[support, :] = coeffs
    return SparseGainEstimate(
        gains=gains,
        support=tuple((idx % shape[0], idx // shape[0]) for idx in support),
        selection_order=tuple(support),
        residual_norm=residual,
    )


def batch_omp(
    target,
    dictionary,
    opts: OmpOptions | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> SparseGainEstimate:
    """Orthogonal matching pursuit with precomputed Gram updates.

    Correlations are refreshed from the Gram matrix instead of an
    explicit residual; coefficients are least-squares refit on the
    support each step.  Selection takes the largest absolute correlation,
    breaking ties toward the lowest column index.

    Parameters
    ----------
    target : array_like
        Measurement vector.
    dictionary : array_like
        Dictionary matrix, one atom per column.
    opts : OmpOptions, optional
        ``sparsity_cap`` defaults to the column count, ``residual_tol``
        to 1e-8 * ||target||.
    grid_shape : (int, int), optional
        AoA x AoD grid dimensions used to express the support as index
        pairs; defaults to one pair (column, 0) per atom.
    """
    y = np.asarray(target, dtype=np.complex128).reshape(-1, 1)
    return _omp(y, dictionary, opts, grid_shape)


def somp_baseline(targets, dictionary, opts: OmpOptions | None = None) -> SparseGainEstimate:
    """Simultaneous OMP over multiple measurement vectors.

    Atom scores aggregate correlations across target columns by their
    l2 norm; all targets share one support.  With a single column this
    reduces exactly to :func:`batch_omp`.
    """
    return _omp(np.asarray(targets, dtype=np.complex128), dictionary, opts, None)


def reconstruct_channel(
    estimate: SparseGainEstimate, dictionary: AngularDictionary
) -> np.ndarray:
    """Channel matrix a_ms @ gains @ a_bs^H from recovered grid gains."""
    expected = (dictionary.size_aoa, dictionary.size_aod)
    if estimate.gains.shape != expected:
        raise ShapeError(
            f"gain grid {estimate.gains.shape} does not match dictionary {expected}"
        )
    return dictionary.a_ms @ estimate.gains @ dictionary.a_bs.conj().T


def estimate_phase2(
    completed,
    block: PilotBlock,
    dictionary: AngularDictionary,
    rank: int,
    opts: OmpOptions | None = None,
) -> tuple[SparseGainEstimate, np.ndarray]:
    """Sparse angular recovery with a rank-derived sparsity budget.

    The pursuit matches the vectorised completed observation against the
    Kronecker steering dictionary composed with the pilot frontend,
    ``measurement_matrix(block) @ build_dictionary(dictionary)``, with
    each composed atom scaled to unit norm.

    Parameters
    ----------
    completed : array_like
        Completed pilot observation (m_ms x pilot_length).
    rank : int
        Phase-I rank; the sparsity cap is rank**2 unless
        ``opts.sparsity_cap`` overrides it.

    Returns
    -------
    (SparseGainEstimate, numpy.ndarray)
        The sparse estimate with its parameter set filled in and the
        reconstructed channel matrix.
    """
    opts = opts if opts is not None else OmpOptions()
    if opts.sparsity_cap is None:
        if rank < 1:
            raise ConfigError(f"rank {rank} yields an empty sparsity budget")
        cap = rank**2
    else:
        cap = opts.sparsity_cap
    d = measurement_matrix(block) @ build_dictionary(dictionary)
    # The frontend scales each atom unevenly; the pursuit needs
    # unit-norm columns or low-norm directions are never selected.
    scales = np.linalg.norm(d, axis=0)
    degenerate = scales <= 1e-14 * scales.max()
    scales[degenerate] = 1.0
    d = d / scales
    run_opts = replace(opts, sparsity_cap=min(cap, d.shape[1]))
    estimate = batch_omp(
        vec(completed), d, run_opts, grid_shape=(dictionary.size_aoa, dictionary.size_aod)
    )
    rescaled = estimate.gains / scales.reshape(estimate.gains.shape, order="F")
    params = tuple(
        (
            float(dictionary.grid_aoa[i]),
            float(dictionary.grid_aod[j]),
            complex(rescaled[i, j]),
        )
        for i, j in estimate.support
    )
    estimate = replace(estimate, gains=rescaled, parameter_set=params)
    return estimate, reconstruct_channel(estimate, dictionary)
