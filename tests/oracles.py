"""Reference operators the tests check the estimator against.

The package never forms Phi, Psi or the on-grid Hbar: Phase II builds
its atoms from two small Kronecker factors (see
``ramc.recovery.estimate_phase2``).  The coarse estimate is written here
the direct way, recomputing on each call what the package computes once
per step.  The exact BER is written with its sign patterns enumerated
one by one, next to the Monte-Carlo count it replaced.  The pursuit is
written with the residual taken directly after every atom.  The Phase-I
solver is written as whole-matrix steps over factor columns, normed by
``np.linalg.norm``.
"""

import itertools
import math

import numpy as np

from ramc.channel import _grid_index, _pulse
from ramc.completion import DROP_STREAK, MAX_SWEEPS
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
            hbar[i, j] += scale * ray.gain * _pulse(ray.delay)
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
    b, received noiselessly as mu, or the noiseless decision at +inf dB,
    where a part below 1e-12 s_true[0] / |g_j| is roundoff, decided as 0."""
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
                    roundoff = abs(value) < 1e-12 * s_true[0] / abs(gains[j])
                    total += (value < 0.0 and not roundoff) != (sign < 0.0)
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


def r1mc_sweeps(incomplete, rank_hint):
    """``ramc.completion.r1mc_complete`` on a partial mask, written as
    whole-matrix steps: factors are columns, each power step is normed
    by ``np.linalg.norm``, the residual is deflated by ``w * outer(u, vᴴ)``
    and every sweep recomputes the masked misfit, the change and the
    Lagrangian on full matrices.  Returns (completed, rank, iterations,
    converged, trace, margin), where ``margin`` is the smallest distance
    of a compared value from its threshold in any decision the solve took:
    a power step's a from mu, a refit's a from 0, a fit from the previous
    one, the noise level or eps, and the change from eps."""
    observed = incomplete.mask
    y_tilde = incomplete.incomplete.astype(np.complex128)
    rows, cols = y_tilde.shape
    eps = 1e-6 * float(np.linalg.norm(y_tilde))
    noise_floor = math.sqrt(np.count_nonzero(observed) * incomplete.noise_var)
    mu = 1.0 / math.sqrt(max(rows, cols))
    u0, _, vh0 = np.linalg.svd(y_tilde, full_matrices=False)
    n_factors = min(rank_hint, rows, cols)
    left = u0[:, :n_factors].copy()
    right = vh0[:n_factors].conj().T.copy()
    weights = np.zeros(n_factors)
    active = np.ones(n_factors, dtype=bool)
    zero_streak = np.zeros(n_factors, dtype=int)
    multiplier = np.zeros_like(y_tilde)
    iterate = y_tilde
    trace = []
    feas_prev = math.inf
    margins = [math.inf]
    for iteration in range(1, MAX_SWEEPS + 1):
        residual = iterate + multiplier
        for q in np.flatnonzero(active):
            u, v, a = left[:, q], right[:, q], 0.0
            v_new = residual.conj().T @ u
            if np.linalg.norm(v_new) > 0.0:
                v = v_new / np.linalg.norm(v_new)
                u_new = residual @ v
                a = np.linalg.norm(u_new)
                if a > 0.0:
                    u = u_new / a
            w = max(a - mu, 0.0)
            margins.append(abs(a - mu))
            left[:, q], right[:, q], weights[q] = u, v, w
            if w > 0.0:
                residual -= w * np.outer(u, v.conj())
                zero_streak[q] = 0
            else:
                zero_streak[q] += 1
        idx = np.flatnonzero(weights > 0.0)
        z = (left[:, idx] * weights[idx]) @ right[:, idx].conj().T
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        y_new = np.where(observed, y_tilde, z)
        change = float(np.linalg.norm(y_new - iterate))
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
        margins += [abs(feas - eps), abs(change - eps), abs(feas - noise_floor)]
        if feas <= noise_floor:
            margins.append(abs(feas - feas_prev))
        if converged or not active.any():
            break
        feas_prev = feas
    if active.any():
        residual = iterate.copy()
        for q in np.flatnonzero(active):
            u, v = left[:, q], right[:, q]
            a = float(np.real(u.conj() @ residual @ v))
            margins.append(abs(a))
            weights[q] = max(a, 0.0)
            if a > 0.0:
                residual -= a * np.outer(u, v.conj())
        idx = np.flatnonzero(weights > 0.0)
        z = (left[:, idx] * weights[idx]) @ right[:, idx].conj().T
        feas = float(np.linalg.norm((z - y_tilde)[observed]))
        trace.append((iteration + 1, 0.5 * feas**2, feas, idx.size))
    return z, idx.size, iteration, converged, trace, min(margins)
