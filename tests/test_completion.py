"""Tests for rank estimation and the completion solver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc.channel import ChannelParams, sample_realization
from ramc import completion
from ramc.completion import (
    SolverOptions,
    _update_factor,
    estimate_rank,
    r1mc_complete,
)
from ramc.config import ExperimentConfig
from ramc.errors import ConfigError, DegenerateSystemError
from ramc.frontend import (
    HybridConfig,
    ObservationSet,
    make_pilot_block,
    observe,
    subsample,
)
from ramc.harness import run_sweep, summarize_records
from ramc.numerics import SamplingMask, project_mask


def _low_rank(rng, rows, cols, rank, sv=None):
    """Random matrix with prescribed singular values (default U[1, 2])."""
    a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    b = rng.standard_normal((cols, rank)) + 1j * rng.standard_normal((cols, rank))
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    if sv is None:
        sv = rng.uniform(1.0, 2.0, size=rank)
    return qa @ np.diag(np.sort(sv)[::-1]) @ qb.conj().T


def _masked_observation(rng, m, keep):
    rows, cols = m.shape
    while True:
        mask = SamplingMask(rng.random((rows, cols)) < keep)
        if mask.covers_all_lines():
            break
    return ObservationSet(complete=m, mask=mask, incomplete=project_mask(m, mask))


class TestEstimateRank:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_exact_on_noiseless(self, rank):
        rng = np.random.default_rng(100 + rank)
        for _ in range(20):
            m = _low_rank(rng, 16, 16, rank)
            assert estimate_rank(m, xi=0.95) == rank

    def test_xi_one_returns_full_support(self):
        rng = np.random.default_rng(110)
        m = _low_rank(rng, 10, 10, 3)
        assert estimate_rank(m, xi=1.0) >= 3

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateSystemError):
            estimate_rank(np.zeros((4, 4)))

    def test_invalid_xi(self):
        with pytest.raises(ConfigError):
            estimate_rank(np.eye(3), xi=0.0)


class TestR1mcComplete:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(140)
        m = _low_rank(rng, 32, 32, 3)
        obs = _masked_observation(rng, m, keep=0.5)
        result = r1mc_complete(obs, rank_hint=3)
        rel = np.linalg.norm(result.completed - m) / np.linalg.norm(m)
        assert rel <= 1e-3
        assert result.converged

    def test_rank_estimate_matches(self):
        rng = np.random.default_rng(141)
        m = _low_rank(rng, 24, 24, 2)
        obs = _masked_observation(rng, m, keep=0.6)
        result = r1mc_complete(obs, rank_hint=4)
        assert result.rank == 2

    def test_full_mask_shortcut(self):
        rng = np.random.default_rng(142)
        m = _low_rank(rng, 10, 10, 2)
        mask = SamplingMask.full(10, 10)
        obs = ObservationSet(complete=m, mask=mask, incomplete=m.copy())
        result = r1mc_complete(obs)
        assert np.allclose(result.completed, m, atol=1e-12)
        assert result.iterations == 0

    def test_no_hint_allocates_from_data(self):
        rng = np.random.default_rng(143)
        m = _low_rank(rng, 20, 20, 1)
        obs = _masked_observation(rng, m, keep=0.6)
        result = r1mc_complete(obs)
        rel = np.linalg.norm(result.completed - m) / np.linalg.norm(m)
        assert rel <= 1e-3

    def test_observed_entries_consistent(self):
        rng = np.random.default_rng(144)
        m = _low_rank(rng, 16, 16, 2)
        obs = _masked_observation(rng, m, keep=0.6)
        result = r1mc_complete(obs, rank_hint=2)
        kept = obs.mask.observed
        residual = np.linalg.norm(result.completed[kept] - m[kept])
        assert residual <= 1e-4 * np.linalg.norm(m)

    def test_overstated_hint_prunes(self):
        # Spare factors shrink to zero weight and are dropped rather than
        # polluting the estimate.
        rng = np.random.default_rng(145)
        m = _low_rank(rng, 20, 20, 2)
        obs = _masked_observation(rng, m, keep=0.7)
        result = r1mc_complete(obs, rank_hint=6)
        assert result.rank == 2
        rel = np.linalg.norm(result.completed - m) / np.linalg.norm(m)
        assert rel <= 1e-3

    def test_shrinkage_support_monotone_in_mu(self):
        # Stronger l1 pressure can only remove factors, never add them.
        rng = np.random.default_rng(146)
        m = _low_rank(rng, 16, 16, 3)
        obs = _masked_observation(rng, m, keep=0.7)
        supports = []
        for mu in (0.05, 0.3, 1.0, 3.0):
            opts = SolverOptions(mu=mu, max_iters=150)
            result = r1mc_complete(obs, rank_hint=5, opts=opts)
            supports.append(result.rank)
        assert all(a >= b for a, b in zip(supports, supports[1:]))

    def test_noisy_solves_stop_by_own_rule(self):
        # Noisy data cannot meet the epsilon test; the solver must still
        # stop once its fit reaches the noise level, not at max_iters.
        channel, hybrid = ChannelParams(), HybridConfig()
        opts = SolverOptions()
        results = []
        for snr_db in (5.0, 15.0, 25.0):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                real = sample_realization(channel, rng)
                block = make_pilot_block(hybrid, channel.n_bs, channel.n_ms, seed=rng)
                clean = observe(real, block).complete
                noise_var = np.linalg.norm(clean) ** 2 / (clean.size * 10 ** (snr_db / 10))
                noisy = observe(real, replace(block, noise_var=noise_var), seed=rng)
                obs = subsample(noisy, 0.6, seed=rng)
                assert obs.noise_var == noise_var
                for hint in (2, 8):
                    results.append(r1mc_complete(obs, rank_hint=hint, opts=opts))
        stopped = [r.converged and r.iterations < opts.max_iters for r in results]
        assert sum(stopped) >= 0.9 * len(results)

    def test_trace_rows(self):
        rng = np.random.default_rng(147)
        m = _low_rank(rng, 12, 12, 2)
        obs = _masked_observation(rng, m, keep=0.7)
        result = r1mc_complete(obs, rank_hint=2)
        # One row per sweep plus the shrink-free refit row.
        assert len(result.trace) == result.iterations + 1
        assert [row[0] for row in result.trace] == list(range(1, result.iterations + 2))
        assert all(len(row) == 4 for row in result.trace)


def _reference_update(residual, u, v, norm=np.linalg.norm):
    """The power step written plainly, with @ and ``norm`` (np.linalg.norm by default)."""
    v_new = residual.conj().T @ u
    nv = norm(v_new)
    if nv == 0.0:
        return u, v, 0.0
    v = v_new / nv
    u_new = residual @ v
    nu = norm(u_new)
    if nu == 0.0:
        return u, v, 0.0
    return u_new / nu, v, nu


@st.composite
def _factor_problems(draw):
    """Residual and factor columns as the solver passes them.

    u and v are strided columns of C-ordered factor matrices; the
    residual is either full rank or low rank plus a small perturbation.
    Shapes start at 2 x 2, where the exactness contract holds.
    """
    rows, cols = draw(
        st.one_of(
            st.just((8, 32)),
            st.tuples(st.integers(2, 12), st.integers(2, 12)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    n_factors = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=0, max_value=n_factors - 1))
    rank = draw(st.integers(min_value=1, max_value=min(rows, cols)))
    residual = scale * _low_rank(rng, rows, cols, rank)
    residual += draw(st.sampled_from([0.0, 1e-6, 1.0])) * scale * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )
    left = rng.standard_normal((rows, n_factors)) + 1j * rng.standard_normal((rows, n_factors))
    right = rng.standard_normal((cols, n_factors)) + 1j * rng.standard_normal((cols, n_factors))
    left /= np.linalg.norm(left, axis=0)
    right /= np.linalg.norm(right, axis=0)
    return residual, left[:, q], right[:, q]


class TestUpdateFactor:
    @settings(max_examples=80, deadline=None)
    @given(problem=_factor_problems())
    def test_bit_identical_to_plain_loop(self, problem):
        residual, u, v = problem
        before = residual.copy()
        u_fast, v_fast, a_fast = _update_factor(residual, u, v)
        u_ref, v_ref, a_ref = _reference_update(residual, u, v)
        assert np.array_equal(u_fast, u_ref)
        assert np.array_equal(v_fast, v_ref)
        assert a_fast == a_ref
        assert np.array_equal(residual, before)

    def test_zero_residual_returns_inputs(self):
        left = np.ones((8, 3), dtype=complex) / np.sqrt(8)
        right = np.ones((32, 3), dtype=complex) / np.sqrt(32)
        u, v, a = _update_factor(np.zeros((8, 32), dtype=complex), left[:, 1], right[:, 1])
        assert np.array_equal(u, left[:, 1])
        assert np.array_equal(v, right[:, 1])
        assert a == 0.0


def test_sweep_medians_robust_to_roundoff(monkeypatch):
    # A roundoff-level change in the power iteration must not move the
    # sweep's medians: the solver stops at the noise level, before the
    # dual ascent amplifies such differences.
    cfg = ExperimentConfig(snr_grid_db=(5.0, 15.0, 25.0), n_trials=2, time_steps=2)
    variants = ("rank_aware", "fixed_rank:2", "rank_oblivious")
    base = summarize_records(run_sweep(cfg, variants=variants))

    def vdot_norm(x):
        return math.sqrt(np.vdot(x, x).real)

    monkeypatch.setattr(
        completion,
        "_update_factor",
        lambda residual, u, v: _reference_update(residual, u, v, norm=vdot_norm),
    )
    moved = summarize_records(run_sweep(cfg, variants=variants))
    assert moved.variants == base.variants and moved.snrs == base.snrs
    assert np.max(np.abs(moved.median_nmse_db - base.median_nmse_db)) <= 0.1
