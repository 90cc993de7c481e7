"""Dense complex linear-algebra kernels used by the estimation pipeline.

Thin wrappers around LAPACK-backed numpy routines with the validation,
tolerance and error semantics the rest of the package relies on.  All
functions are pure: inputs are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleMaskError,
    MatrixSizeError,
    ShapeError,
    SolverFailureError,
)

# Relative cutoff below which a singular value counts as zero.
RANK_TOLERANCE = 1e-12

# Largest element count kron() will materialise (256 MiB of complex128).
MAX_KRON_ELEMENTS = 1 << 24


def _as_matrix(m, name="matrix"):
    """Validate and return a 2-D complex128 array copy-free where possible."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ShapeError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``m = u @ diag(s) @ v.conj().T``.

    ``u`` and ``v`` hold left/right singular vectors in their columns,
    ``s`` is real non-negative and sorted descending.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        """Numerical rank at the package-wide relative tolerance."""
        if self.s.size == 0 or self.s[0] == 0.0:
            return 0
        return int(np.sum(self.s > RANK_TOLERANCE * self.s[0]))


@dataclass(frozen=True)
class SamplingMask:
    """Boolean observation pattern over a matrix of fixed shape.

    ``observed[i, j]`` is True when entry (i, j) was measured.  Masks are
    immutable; constructors validate that at least one entry is observed.
    """

    observed: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {obs.shape}")
        if not obs.any():
            raise InfeasibleMaskError("mask observes no entries")
        object.__setattr__(self, "observed", obs)

    @property
    def rows(self) -> int:
        return self.observed.shape[0]

    @property
    def cols(self) -> int:
        return self.observed.shape[1]

    @property
    def count(self) -> int:
        """Number of observed entries."""
        return int(self.observed.sum())

    def covers_all_lines(self) -> bool:
        """True when every row and every column holds an observation."""
        return bool(self.observed.any(axis=1).all() and self.observed.any(axis=0).all())

    def indices(self) -> np.ndarray:
        """Observed (row, col) pairs, row-major order, shape (count, 2)."""
        return np.argwhere(self.observed)

    @classmethod
    def full(cls, rows: int, cols: int) -> "SamplingMask":
        return cls(np.ones((rows, cols), dtype=bool))


def svd(m) -> SvdResult:
    """Thin SVD of a complex matrix.

    Parameters
    ----------
    m : array_like
        Matrix to factor, shape (rows, cols).

    Returns
    -------
    SvdResult
        Factors with ``s`` sorted descending and orthonormal ``u``/``v``
        columns.

    Raises
    ------
    SolverFailureError
        If LAPACK's SVD does not converge; the message names the shape.
    """
    a = _as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        rows, cols = a.shape
        raise SolverFailureError(f"SVD of a {rows}x{cols} matrix did not converge") from exc
    return SvdResult(u=u, s=s, v=vh.conj().T)


def kron(a, b) -> np.ndarray:
    """Kronecker product, refused above ``MAX_KRON_ELEMENTS`` entries."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    out_elements = a.size * b.size
    if out_elements > MAX_KRON_ELEMENTS:
        raise MatrixSizeError(
            f"kron result would hold {out_elements} entries "
            f"(cap {MAX_KRON_ELEMENTS})"
        )
    return np.kron(a, b)


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the thin SVD."""
    a = _as_matrix(m)
    return np.linalg.pinv(a, rcond=RANK_TOLERANCE)


def project_mask(m, mask: SamplingMask) -> np.ndarray:
    """Keep observed entries of ``m`` and zero the rest."""
    a = _as_matrix(m)
    if a.shape != (mask.rows, mask.cols):
        raise ShapeError(
            f"matrix shape {a.shape} does not match mask "
            f"({mask.rows}, {mask.cols})"
        )
    return np.where(mask.observed, a, 0.0 + 0.0j)


def vec(m) -> np.ndarray:
    """Column-stacking vectorisation, so vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(m).flatten(order="F")
