"""Reference operators the tests check the estimator against.

The package never forms Phi, Psi or the on-grid Hbar: Phase II builds
its atoms from two small Kronecker factors (see
``ramc.recovery.estimate_phase2``).  The coarse estimate is written here
the direct way, recomputing on each call what the package computes once
per step.  The exact BER is written with its sign patterns enumerated
one by one, next to the Monte-Carlo count it replaced.  The pursuit is
written with the residual taken directly after every atom.
"""

import itertools
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


def _link(h, h_est, n_streams):
    """Combiner C^H and link matrix C^H H P of beams from the estimate's
    own SVD, the truth's singular values, and the roundoff-floored
    stream gains."""
    u, s, vh = np.linalg.svd(np.asarray(h_est, dtype=np.complex128))
    if s[0] == 0.0:
        raise DegenerateSystemError("cannot beamform on a zero channel estimate")
    combiner_h = u[:, :n_streams].conj().T
    link = combiner_h @ (h @ vh.conj().T[:, :n_streams])
    s_true = np.linalg.svd(h, compute_uv=False)
    diag = np.diagonal(link)
    gains = np.where(np.abs(diag) > 1e-12 * s_true[0], diag, 1.0)
    return combiner_h, link, s_true, gains


def _noise_scale(h, s_true, n_streams, snr_db):
    signal_power = float(np.sum(s_true[:n_streams] ** 2)) / h.shape[0]
    return math.sqrt(signal_power / snr_to_linear(snr_db))


def ber_link_enumerated(h_true, h_est, snr_db, n_streams) -> float:
    """The exact BER of one link, with every sign pattern, stream and
    part visited in plain Python: Q(b mu / std) for a part sent with sign
    b, received noiselessly as mu, or the noiseless decision at +inf dB."""
    h = np.asarray(h_true, dtype=np.complex128)
    _, link, s_true, gains = _link(h, h_est, n_streams)
    sigma = _noise_scale(h, s_true, n_streams, snr_db)
    total, patterns = 0.0, list(itertools.product((1.0, -1.0), repeat=2 * n_streams))
    for bits in patterns:
        x = [complex(bits[2 * i], bits[2 * i + 1]) / math.sqrt(2.0) for i in range(n_streams)]
        for j in range(n_streams):
            mu = sum(complex(link[j, i] / gains[j]) * x[i] for i in range(n_streams))
            std = sigma / (math.sqrt(2.0) * abs(gains[j]))
            for value, sign in ((mu.real, bits[2 * j]), (mu.imag, bits[2 * j + 1])):
                if std > 0.0:
                    total += 0.5 * math.erfc(sign * value / (std * math.sqrt(2.0)))
                else:
                    total += (value < 0.0) != (sign < 0.0)
    return total / (len(patterns) * 2 * n_streams)


def ber_link_errors_drawn(h_true, h_est, snr_db, n_streams, n_symbols, seed) -> int:
    """Sign errors of one link over ``n_symbols`` drawn QPSK symbols per
    stream, each with its own complex Gaussian noise vector: the
    Monte-Carlo BER count over ``2 * n_streams * n_symbols`` bits, drawn
    in chunks so that no large array is held."""
    h = np.asarray(h_true, dtype=np.complex128)
    combiner_h, link, s_true, gains = _link(h, h_est, n_streams)
    sigma = _noise_scale(h, s_true, n_streams, snr_db)
    rng = np.random.default_rng(seed)
    errors = 0
    for start in range(0, n_symbols, 100_000):
        size = min(100_000, n_symbols - start)
        bits = rng.integers(0, 2, size=(2 * n_streams, size))
        symbols = ((1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])) / math.sqrt(2.0)
        noise = rng.standard_normal((h.shape[0], size)) + 1j * rng.standard_normal(
            (h.shape[0], size)
        )
        received = link @ symbols + sigma / math.sqrt(2.0) * (combiner_h @ noise)
        equalised = received / gains[:, None]
        errors += int(np.sum(bits[0::2] != (equalised.real < 0)))
        errors += int(np.sum(bits[1::2] != (equalised.imag < 0)))
    return errors


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
        if score[best] <= 1e-13 * scale:
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
