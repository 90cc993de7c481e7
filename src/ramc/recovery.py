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
from .errors import ConfigError, DegenerateSystemError, MatrixSizeError, ShapeError
from .frontend import PilotBlock

# Largest element count _kron will materialise (256 MiB of complex128).
MAX_KRON_ELEMENTS = 1 << 24
# Correlations below this relative level stop the pursuit: the residual
# is numerically inside the span of the selected columns.
_CORRELATION_FLOOR = 1e-13
# The pursuit stops once its residual falls to this fraction of ||y||.
_RESIDUAL_TOL = 1e-8
# A Cholesky pivot this small marks an atom dependent on the support.
_PIVOT_FLOOR = 1e-12
# The direct residual is taken only once the Gram-domain residual energy
# falls to this fraction of ||y||^2 (see _pursuit).
_SCREEN_TOL = 1e-6


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
    parameter_set: tuple = ()


@dataclass(frozen=True)
class PursuitAtoms:
    """A dictionary's unit-norm columns (a zero column stays zero), their
    norms and their Gram matrix; one value serves one pursuit call."""

    unit: np.ndarray
    norms: np.ndarray
    gram: np.ndarray


def pursuit_atoms(dictionary) -> PursuitAtoms:
    """The :class:`PursuitAtoms` of ``dictionary``'s columns."""
    d = np.asarray(dictionary, dtype=np.complex128)
    norms = np.linalg.norm(d, axis=0)
    unit = d / np.where(norms == 0.0, 1.0, norms)
    return PursuitAtoms(unit, norms, unit.conj().T @ unit)


def _pursuit(targets, atoms: PursuitAtoms, cap: int) -> SparseGainEstimate:
    """Batch OMP on prebuilt atoms, shared by OMP (1 column) and SOMP (many).

    Atoms are selected at unit norm, else low-norm ones (the pilot
    frontend scales composed atoms unevenly) are never picked; the gains
    are scaled back.  Correlations are refreshed from the Gram matrix G,
    whose selected columns, like the selected atoms and their h0 = D^H y
    rows, are gathered into buffers allocated once per call.  The
    inverse L^-1 of the support Gram's Cholesky factor grows by one row
    per atom b: with w = L^-1 G[S, b] and pivot d^2 = G[b, b] - ||w||^2
    the row is [-w^H L^-1 / d, 1/d], and the coefficients are
    L^-H L^-1 h0[S] (Rubinstein, Zibulevsky & Elad, Technion CS-2008-08).
    A pivot at roundoff level raises :class:`DegenerateSystemError`.  The
    pursuit stops after ``cap`` atoms, once the residual falls to
    ``_RESIDUAL_TOL * ||y||``, or when no atom correlates with it.

    The residual is screened in the Gram domain: ||y||^2 - Re<h0[S], c>
    is ||y - D_S c||^2 up to Re<c, G_S c - h0[S]>, and the direct
    residual is taken only when that energy is at most
    ``_SCREEN_TOL * ||y||^2``.  The screen cannot change a stop decision.
    With c = c* + e off the exact fit c*, the direct energy is
    ||r*||^2 + ||D_S e||^2 and the Gram one differs from it by at most
    ||y|| ||D_S e|| + ||D_S e||^2.  So a direct residual at or below
    ``_RESIDUAL_TOL * ||y||`` (1e-8) puts the Gram energy at or below
    about 1e-8 ||y||^2, a hundredth of the screen, and that residual is
    always taken.  Over the 2,880 pursuits of ``ablation`` seeds 0-39 the
    two energies differed by at most 1.7e-15 ||y||^2 with a rank cap and
    2.0e-12 ||y||^2 in the 64-atom fits with none, where the smallest
    residual energy of these noisy targets was 9.9e-4 ||y||^2.
    """
    y = np.asarray(targets, dtype=np.complex128)
    if y.ndim == 1:
        y = y[:, None]
    unit, gram = atoms.unit, atoms.gram
    if unit.shape[0] != y.shape[0]:
        raise ShapeError(f"dictionary rows {unit.shape[0]} != target rows {y.shape[0]}")
    if cap < 1:
        raise ConfigError("sparsity cap must be >= 1")
    if not atoms.norms.all():
        raise DegenerateSystemError("dictionary holds a zero column")
    size = min(cap, unit.shape[1])  # the most atoms the pursuit can select
    h0 = unit.conj().T @ y
    residual = scale = float(np.linalg.norm(y))

    support: list[int] = []
    linv = np.zeros((size, size), dtype=np.complex128)
    gram_s = np.empty((gram.shape[0], size), dtype=np.complex128)
    unit_s = np.empty((unit.shape[0], size), dtype=np.complex128)
    h0_s = np.empty((size, y.shape[1]), dtype=np.complex128)
    while len(support) < size and residual > _RESIDUAL_TOL * scale:
        k = len(support)
        corr = h0 - gram_s[:, :k] @ coeffs if support else h0
        score = np.linalg.norm(corr, axis=1)
        score[support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= _CORRELATION_FLOOR * max(scale, 1.0):
            break
        w = linv[:k, :k] @ gram[support, best]
        pivot = gram[best, best].real - np.vdot(w, w).real
        support.append(best)
        if not pivot > _PIVOT_FLOOR:
            raise DegenerateSystemError(f"selected columns {support} are numerically dependent")
        gram_s[:, k], unit_s[:, k], h0_s[k] = gram[:, best], unit[:, best], h0[best]
        d = np.sqrt(pivot)
        linv[k, :k] = -(w.conj() @ linv[:k, :k]) / d
        linv[k, k] = 1.0 / d
        lk = linv[: k + 1, : k + 1]
        coeffs = lk.conj().T @ (lk @ h0_s[: k + 1])
        if scale * scale - np.vdot(h0_s[: k + 1], coeffs).real <= _SCREEN_TOL * scale * scale:
            residual = float(np.linalg.norm(y - unit_s[:, : k + 1] @ coeffs))

    gains = np.zeros((unit.shape[1], y.shape[1]), dtype=np.complex128)
    if support:
        # Undo the column normalisation on the recovered coefficients.
        gains[support, :] = coeffs / atoms.norms[support][:, None]
    return SparseGainEstimate(gains=gains, support=tuple(support))


def _kron(a, b) -> np.ndarray:
    """``np.kron(a, b)``, refused above ``MAX_KRON_ELEMENTS`` entries."""
    size = a.size * b.size
    if size > MAX_KRON_ELEMENTS:
        raise MatrixSizeError(f"kron result would hold {size} entries (cap {MAX_KRON_ELEMENTS})")
    return np.kron(a, b)


def somp_baseline(targets, dictionary, sparsity_cap: int) -> SparseGainEstimate:
    """Simultaneous OMP over multiple measurement vectors.

    Atom scores aggregate correlations across target columns by their l2
    norm; all targets share one support and one Cholesky update (see
    :func:`_pursuit`), on the :func:`pursuit_atoms` of ``dictionary``.
    """
    return _pursuit(targets, pursuit_atoms(dictionary), sparsity_cap)


def estimate_phase2(
    completed,
    block: PilotBlock,
    dictionary: AngularDictionary,
    rank: int | None,
) -> tuple[SparseGainEstimate, np.ndarray]:
    """Sparse angular recovery with a rank-derived sparsity budget.

    Batch OMP (see :func:`_pursuit`) matches the vectorised completed
    observation against the Kronecker steering dictionary
    conj(A_bs) (x) A_ms composed with the pilot frontend
    (FS)^T (x) W^H.  By the mixed-product rule that product is
    kron((FS)^T conj(A_bs), W^H A_ms) = kron(B, A), so its unit atoms,
    norms and Gram matrix are the Kronecker products of B's and A's; each
    call builds them from the two small factors.

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
    b = pursuit_atoms(block.effective_precoder.T @ dictionary.a_bs.conj())
    a = pursuit_atoms(block.w.conj().T @ dictionary.a_ms)
    # _kron refuses atoms or a Gram matrix above MAX_KRON_ELEMENTS; the
    # norms stay a real vector, one entry ||B_j|| ||A_i|| per atom.
    atoms = PursuitAtoms(_kron(b.unit, a.unit), np.kron(b.norms, a.norms), _kron(b.gram, a.gram))
    y = np.asarray(completed).flatten(order="F")
    estimate = _pursuit(y, atoms, atoms.unit.shape[1] if rank is None else rank**2)
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
