"""Reference operators the tests check the estimator against.

The package never forms these: Phase II builds its atoms from two small
Kronecker factors (see ``ramc.recovery.estimate_phase2``).
"""

import math

import numpy as np

from ramc.channel import _grid_index, raised_cosine


def vec(m) -> np.ndarray:
    """Column-stacking vectorisation, so vec(A X B) == (B^T kron A) vec(X)."""
    return np.asarray(m).flatten(order="F")


def measurement_matrix(block) -> np.ndarray:
    """Linear operator Phi with vec(Y) == Phi @ vec(H) (column stacking)."""
    return np.kron(block.effective_precoder.T, block.w.conj().T)


def build_dictionary(dictionary) -> np.ndarray:
    """Kronecker dictionary Psi whose columns span vec(a_ms @ hbar @ a_bs^H).

    Column j*L1 + i equals kron(conj(a_bs[:, j]), a_ms[:, i]); with
    column-stacking vec this matches conj(A_bs) (x) A_ms.
    """
    return np.kron(dictionary.a_bs.conj(), dictionary.a_ms)


def angular_factorization(real, dictionary) -> np.ndarray:
    """On-grid gain matrix Hbar with one entry per ray.

    Satisfies a_ms @ Hbar @ a_bs^H == real.matrix when every effective ray
    angle is a grid point; rays in the same cell accumulate.  Raises
    ValueError naming the first cluster/ray whose angle is off the grid.
    """
    params = real.params
    scale = math.sqrt(params.n_bs * params.n_ms / real.total_rays)
    hbar = np.zeros((dictionary.size_aoa, dictionary.size_aod), dtype=np.complex128)
    for ci, cluster in enumerate(real.clusters):
        for ri, ray in enumerate(cluster.rays):
            i = _grid_index(cluster.mean_aoa - ray.aoa_offset, dictionary.grid_aoa)
            j = _grid_index(cluster.mean_aod - ray.aod_offset, dictionary.grid_aod)
            if i is None or j is None:
                which = "AoA" if i is None else "AoD"
                raise ValueError(f"cluster {ci} ray {ri}: {which} off the dictionary grid")
            pulse = raised_cosine(-ray.delay, params.pulse_rolloff, params.sample_period)
            hbar[i, j] += scale * ray.gain * pulse
    return hbar
