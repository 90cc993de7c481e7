"""Tests of the hybrid pilot frontend: beamformers, observations, masks."""

import numpy as np
import pytest

from ramc import (
    ChannelParams,
    ConfigError,
    HybridConfig,
    InfeasibleMaskError,
    PilotBlock,
    coarse_channel,
    make_beamformers,
    make_pilot_block,
    measurement_matrix,
    nmse,
    observe,
    pilot_symbols,
    sample_realization,
    subsample,
    vec,
)
from ramc.frontend import analog_stage


@pytest.fixture
def realization():
    rng = np.random.default_rng(5)
    return sample_realization(ChannelParams(), rng)


class TestHybridConfig:
    def test_defaults_valid(self):
        cfg = HybridConfig()
        assert cfg.m_bs == 8 and cfg.pilot_length == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_bs": 0},
            {"n_streams": 0},
            {"n_streams": 9},
            {"phase_bits": 0},
            {"pilot_length": 4},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            HybridConfig(**kwargs)


class TestBeamformers:
    def test_shapes_and_power(self):
        cfg = HybridConfig(n_streams=2)
        f, w = make_beamformers(cfg, n_bs=8, n_ms=8, seed=3)
        assert f.shape == (8, 8) and w.shape == (8, 8)
        assert np.linalg.norm(f) ** 2 == pytest.approx(2.0)
        assert np.linalg.norm(w) ** 2 == pytest.approx(2.0)

    def test_analog_stage_constant_modulus(self):
        rng = np.random.default_rng(4)
        a = analog_stage(8, 4, phase_bits=6, rng=rng)
        assert np.allclose(np.abs(a), 1 / np.sqrt(8), atol=1e-12)

    def test_phase_quantisation(self):
        rng = np.random.default_rng(6)
        a = analog_stage(4, 4, phase_bits=2, rng=rng)
        # Two bits allow exactly four phase levels.
        phases = np.angle(a * np.sqrt(4))
        levels = np.exp(1j * phases)
        allowed = np.exp(2j * np.pi * np.arange(4) / 4)
        for level in levels.ravel():
            assert np.min(np.abs(allowed - level)) < 1e-12

    def test_more_chains_than_antennas_rejected(self):
        with pytest.raises(ConfigError):
            make_beamformers(HybridConfig(m_bs=8), n_bs=4, n_ms=8, seed=0)

    def test_deterministic_in_seed(self):
        cfg = HybridConfig()
        f1, w1 = make_beamformers(cfg, 8, 8, seed=42)
        f2, w2 = make_beamformers(cfg, 8, 8, seed=42)
        assert np.array_equal(f1, f2) and np.array_equal(w1, w2)


def test_pilot_symbols_orthogonal():
    s = pilot_symbols(HybridConfig(m_bs=8, pilot_length=32))
    assert s.shape == (8, 32)
    assert np.allclose(s @ s.conj().T, np.eye(8), atol=1e-12)


class TestObserve:
    def test_noiseless_model(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        obs = observe(realization, block)
        expected = block.w.conj().T @ realization.matrix @ block.f @ block.s
        assert np.allclose(obs.complete, expected, atol=1e-12)
        assert obs.mask.fraction == 1.0

    def test_noise_variance(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1, noise_var=0.25)
        clean = observe(realization, make_pilot_block(HybridConfig(), 8, 8, seed=1))
        noise = []
        for seed in range(200):
            obs = observe(realization, block, seed=seed)
            noise.append(np.mean(np.abs(obs.complete - clean.complete) ** 2))
        assert np.mean(noise) == pytest.approx(0.25, rel=0.05)

    def test_measurement_matrix_identity(self, realization):
        """vec(Y) == Phi @ vec(H) ties the matrix and operator views."""
        block = make_pilot_block(HybridConfig(), 8, 8, seed=2)
        obs = observe(realization, block)
        phi = measurement_matrix(block)
        assert phi.shape == (8 * 32, 64)
        assert np.allclose(vec(obs.complete), phi @ vec(realization.matrix), atol=1e-10)


class TestSubsample:
    def test_keep_fraction(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        obs = subsample(observe(realization, block), 0.6, seed=11)
        assert obs.mask.count == int(np.ceil(0.6 * 8 * 32))
        assert obs.mask.covers_all_lines()
        # Unobserved entries are zeroed, observed ones untouched.
        kept = obs.mask.observed
        assert np.array_equal(obs.incomplete[kept], obs.complete[kept])
        assert np.all(obs.incomplete[~kept] == 0)

    def test_full_keep(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        obs = subsample(observe(realization, block), 1.0, seed=11)
        assert obs.mask.fraction == 1.0

    def test_infeasible_fraction(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        with pytest.raises(InfeasibleMaskError):
            subsample(observe(realization, block), 0.05, seed=11)

    def test_deterministic(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        full = observe(realization, block)
        m1 = subsample(full, 0.5, seed=7).mask.observed
        m2 = subsample(full, 0.5, seed=7).mask.observed
        assert np.array_equal(m1, m2)

    def test_sparse_fraction_still_covers_lines(self, realization):
        # Near the feasibility edge the constructive fallback must still
        # produce a row/column cover.
        block = make_pilot_block(HybridConfig(), 8, 8, seed=1)
        full = observe(realization, block)
        for seed in range(20):
            masked = subsample(full, 0.14, seed=seed)
            assert masked.mask.covers_all_lines()


def test_coarse_channel_full_mask_exact(realization):
    # With a square invertible frontend and no mask the pseudo-inverse
    # estimate recovers the channel.
    block = make_pilot_block(HybridConfig(), 8, 8, seed=9)
    obs = observe(realization, block)
    h = coarse_channel(obs, block)
    assert nmse(realization.matrix, h) <= 1e-20


def test_coarse_channel_degrades_with_mask(realization):
    block = make_pilot_block(HybridConfig(), 8, 8, seed=9)
    full = observe(realization, block)
    masked = subsample(full, 0.5, seed=3)
    err_full = nmse(realization.matrix, coarse_channel(full, block))
    err_masked = nmse(realization.matrix, coarse_channel(masked, block))
    assert err_masked > err_full


def test_pilot_block_shape_validation():
    with pytest.raises(Exception):
        PilotBlock(f=np.eye(4), w=np.eye(4), s=np.ones((3, 10)))
