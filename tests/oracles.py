"""Reference operators the tests check the estimator against.

The package never forms Phi, Psi or the on-grid Hbar: Phase II builds
its atoms from two small Kronecker factors (see
``ramc.recovery.estimate_phase2``).  The coarse estimate, the BER draws
and the BER link are written here the direct way, recomputing on each
call what the package computes once per step.  The pursuit is written
with the residual taken directly after every atom.
"""

import math

import numpy as np

from ramc.channel import _grid_index, raised_cosine
from ramc.config import snr_to_linear
from ramc.errors import DegenerateSystemError
from ramc.recovery import SparseGainEstimate


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


def coarse_channel_two_pinvs(obs, block) -> np.ndarray:
    """The coarse estimate with both pseudo-inverses taken on each call."""
    return (
        np.linalg.pinv(block.w.conj().T, rcond=1e-12)
        @ obs.incomplete
        @ np.linalg.pinv(block.f @ block.s, rcond=1e-12)
    )


def draw_ber_link_three_arrays(n_rx, n_symbols, n_streams, seed):
    """BER draws as ``(bits, symbols, noise)`` from separate expressions."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(2 * n_streams, n_symbols))
    symbols = ((1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])) / math.sqrt(2.0)
    noise = (
        rng.normal(size=(n_rx, n_symbols)) + 1j * rng.normal(size=(n_rx, n_symbols))
    ) / math.sqrt(2.0)
    return bits, symbols, noise


def ber_link_two_products(h_true, h_est, snr_db, bits, symbols, noise) -> float:
    """The BER link with its own SVD of the truth, received signal and
    noise taken as two products, and the equaliser applied afterwards."""
    h = np.asarray(h_true, dtype=np.complex128)
    u, _, vh = np.linalg.svd(np.asarray(h_est, dtype=np.complex128))
    n_streams = symbols.shape[0]
    precoder = vh.conj().T[:, :n_streams]
    combiner = u[:, :n_streams]
    s_true = np.linalg.svd(h, compute_uv=False)
    signal_power = float(np.sum(s_true[:n_streams] ** 2)) / h.shape[0]
    noise_scale = math.sqrt(signal_power / snr_to_linear(snr_db))
    link = combiner.conj().T @ (h @ precoder)
    received = link @ symbols + noise_scale * (combiner.conj().T @ noise)
    diag = np.diagonal(link).copy()
    safe = np.abs(diag) > 1e-12 * s_true[0]
    equalised = np.where(safe[:, None], received / np.where(safe, diag, 1.0)[:, None], received)
    errors = int(np.sum(bits[0::2] != (equalised.real < 0)))
    errors += int(np.sum(bits[1::2] != (equalised.imag < 0)))
    return errors / bits.size


def pursuit_direct_residual(targets, atoms, cap) -> SparseGainEstimate:
    """``ramc.recovery._pursuit`` with the residual ||y - D_S c|| taken
    directly after every atom, and the selected Gram columns and atoms
    copied on every iteration."""
    y = np.asarray(targets, dtype=np.complex128)
    if y.ndim == 1:
        y = y[:, None]
    unit, gram = atoms.unit, atoms.gram
    size = min(cap, unit.shape[1])
    h0 = unit.conj().T @ y
    residual = scale = float(np.linalg.norm(y))
    support: list[int] = []
    linv = np.zeros((size, size), dtype=np.complex128)
    while len(support) < size and residual > 1e-8 * scale:
        corr = h0 - gram[:, support] @ coeffs if support else h0
        score = np.linalg.norm(corr, axis=1)
        score[support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 1e-13 * max(scale, 1.0):
            break
        k = len(support)
        w = linv[:k, :k] @ gram[support, best]
        pivot = gram[best, best].real - np.vdot(w, w).real
        support.append(best)
        if not pivot > 1e-12:
            raise DegenerateSystemError(f"selected columns {support} are numerically dependent")
        d = np.sqrt(pivot)
        linv[k, :k] = -(w.conj() @ linv[:k, :k]) / d
        linv[k, k] = 1.0 / d
        lk = linv[: k + 1, : k + 1]
        coeffs = lk.conj().T @ (lk @ h0[support])
        residual = float(np.linalg.norm(y - unit[:, support] @ coeffs))
    gains = np.zeros((unit.shape[1], y.shape[1]), dtype=np.complex128)
    if support:
        gains[support, :] = coeffs / atoms.norms[support][:, None]
    return SparseGainEstimate(gains=gains, support=tuple(support))
