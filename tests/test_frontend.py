"""Tests of the hybrid pilot frontend: beamformers, observations, masks."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc import frontend
from ramc.channel import ChannelParams, sample_realization
from ramc.errors import ConfigError, InfeasibleMaskError, ShapeError
from ramc.frontend import (
    MAX_PHASE_BITS,
    HybridConfig,
    ObservationSet,
    PilotBlock,
    analog_stage,
    coarse_channel,
    covers_all_lines,
    make_pilot_block,
    observe,
    pilot_symbols,
    subsample,
)
from ramc.harness import nmse

from oracles import coarse_channel_two_pinvs, measurement_matrix, vec


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
            {"m_bs": 1, "n_streams": 2},
            {"phase_bits": 0},
            {"pilot_length": 4},
            {"phase_bits": 64},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            HybridConfig(**kwargs)

    def test_most_phase_bits_draw_a_block(self):
        # Phase levels are int64 draws below 2**phase_bits.
        stage = analog_stage(8, 4, MAX_PHASE_BITS, np.random.default_rng(3))
        assert np.allclose(np.abs(stage), 1 / np.sqrt(8))
        block = make_pilot_block(HybridConfig(phase_bits=MAX_PHASE_BITS), 8, 8, [3])[0]
        assert block.f.shape[0] == 8 and np.isfinite(block.f).all()


class TestBeamformers:
    def test_shapes_and_power(self):
        cfg = HybridConfig(n_streams=2)
        (block,) = make_pilot_block(cfg, n_bs=8, n_ms=8, seeds=[3])
        f, w = block.f, block.w
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
            make_pilot_block(HybridConfig(m_bs=8), n_bs=4, n_ms=8, seeds=[0])

    def test_deterministic_in_seed(self):
        cfg = HybridConfig()
        (b1,) = make_pilot_block(cfg, 8, 8, [42])
        (b2,) = make_pilot_block(cfg, 8, 8, [42])
        assert np.array_equal(b1.f, b2.f) and np.array_equal(b1.w, b2.w)

    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), max_size=6),
        sizes=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
                        st.integers(1, 8), st.integers(0, 16)),
    )
    def test_stack_blocks_as_alone(self, seeds, sizes):
        # One call over n seeds gives every block bit for bit what a call
        # over its seed alone gives, and each block is the hybrid draw
        # that its seed makes on its own: F's analog stage and Gaussian,
        # then W's, each Gaussian's Q taking the unitary digital stage.
        n_bs, n_ms, m_bs, m_ms, extra = sizes
        m_bs, m_ms = min(m_bs, n_bs), min(m_ms, n_ms)
        cfg = HybridConfig(m_bs=m_bs, m_ms=m_ms, n_streams=1, pilot_length=m_bs + extra)
        blocks = make_pilot_block(cfg, n_bs, n_ms, seeds)
        assert len(blocks) == len(seeds)
        names = ("f", "w", "s", "effective_precoder", "combiner_pinv", "precoder_pinv")
        for seed, block in zip(seeds, blocks):
            (alone,) = make_pilot_block(cfg, n_bs, n_ms, [seed])
            for name in names:
                assert getattr(block, name).tobytes() == getattr(alone, name).tobytes(), name
            rng = np.random.default_rng(seed)
            beams = []
            for n, m in ((n_bs, m_bs), (n_ms, m_ms)):
                analog = analog_stage(n, m, cfg.phase_bits, rng)
                q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
                beam = analog @ q
                beams.append(beam / np.linalg.norm(beam))
            assert np.allclose(block.f, beams[0], rtol=0, atol=1e-12)
            assert np.allclose(block.w, beams[1], rtol=0, atol=1e-12)
            fs = block.f @ block.s
            assert np.array_equal(block.effective_precoder, fs)
            assert np.allclose(block.precoder_pinv, np.linalg.pinv(fs, rcond=1e-12), atol=1e-12)
            assert np.allclose(block.combiner_pinv, np.linalg.pinv(block.w.conj().T, rcond=1e-12),
                               atol=1e-12)


def test_pilot_symbols_orthogonal():
    s = pilot_symbols(HybridConfig(m_bs=8, pilot_length=32))
    assert s.shape == (8, 32)
    assert np.allclose(s @ s.conj().T, np.eye(8), atol=1e-12)


def test_pilot_symbols_match_scipy_dft():
    linalg = pytest.importorskip("scipy.linalg")
    for n in range(1, 65):
        reference = linalg.dft(n)
        for m_bs in range(1, n + 1):
            cfg = HybridConfig(m_bs=m_bs, m_ms=1, n_streams=1, pilot_length=n)
            expected = reference[:m_bs] / math.sqrt(n)
            got = pilot_symbols(cfg)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (n, m_bs)


def _pilot_output(realization, block):
    """Noiseless pilot observation W^H H F S."""
    return block.w.conj().T @ realization.matrix @ block.effective_precoder


def _unit_noise(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestObserve:
    def test_noiseless_model(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, [1])[0]
        y = _pilot_output(realization, block)
        obs = observe(y, _unit_noise(y.shape, 0), 0.0, np.ones(y.shape, dtype=bool))
        expected = block.w.conj().T @ realization.matrix @ block.f @ block.s
        assert np.allclose(obs.incomplete, expected, atol=1e-12)
        assert obs.mask.all()

    def test_noise_variance(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, [1])[0]
        clean = _pilot_output(realization, block)
        full = np.ones(clean.shape, dtype=bool)
        noise = []
        for seed in range(200):
            obs = observe(clean, _unit_noise(clean.shape, seed), 0.25, full)
            noise.append(np.mean(np.abs(obs.incomplete - clean) ** 2))
        assert np.mean(noise) == pytest.approx(0.25, rel=0.05)

    def test_noise_level_carried(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, [1])[0]
        y = _pilot_output(realization, block)
        noise = _unit_noise(y.shape, 3)
        assert observe(y, noise, 0.25, np.ones(y.shape, dtype=bool)).noise_var == 0.25
        assert observe(y, noise, 0.25, subsample(*y.shape, 0.6, seed=4)).noise_var == 0.25
        assert observe(y, noise, 0.0, np.ones(y.shape, dtype=bool)).noise_var == 0.0

    @pytest.mark.parametrize("noise_var", [-1e-3, float("nan")])
    def test_negative_noise_level_rejected(self, noise_var):
        ones = np.ones((2, 2), dtype=complex)
        with pytest.raises(ConfigError):
            ObservationSet(np.ones((2, 2), dtype=bool), ones, noise_var=noise_var)

    @pytest.mark.parametrize(
        "mask,value,error",
        [
            pytest.param(np.ones(4, dtype=bool), 1.0, ShapeError, id="1d-mask"),
            pytest.param(np.ones((2, 2)), 1.0, ShapeError, id="float-mask"),
            pytest.param(np.ones((2, 3), dtype=bool), 1.0, ShapeError, id="shape-mismatch"),
            pytest.param(np.zeros((2, 2), dtype=bool), 1.0, InfeasibleMaskError, id="empty-mask"),
            pytest.param(np.ones((2, 2), dtype=bool), np.nan, ShapeError, id="nan"),
            pytest.param(np.ones((2, 2), dtype=bool), np.inf, ShapeError, id="inf"),
            pytest.param(np.ones((2, 2), dtype=bool), -np.inf, ShapeError, id="-inf"),
        ],
    )
    def test_invalid_observation_rejected(self, mask, value, error):
        incomplete = np.ones((2, 2), dtype=complex)
        incomplete[1, 0] = value
        with pytest.raises(error):
            ObservationSet(mask, incomplete)

    def test_observation_must_match_mask(self):
        # np.where would broadcast one row over every row of the mask.
        y = np.ones((1, 32), dtype=complex)
        with pytest.raises(ShapeError):
            observe(y, np.zeros_like(y), 0.0, np.ones((8, 32), dtype=bool))

    def test_measurement_matrix_identity(self, realization):
        """vec(Y) == Phi @ vec(H) ties the matrix and operator views."""
        block = make_pilot_block(HybridConfig(), 8, 8, [2])[0]
        y = _pilot_output(realization, block)
        obs = observe(y, _unit_noise(y.shape, 0), 0.0, np.ones(y.shape, dtype=bool))
        phi = measurement_matrix(block)
        assert phi.shape == (8 * 32, 64)
        assert np.allclose(vec(obs.incomplete), phi @ vec(realization.matrix), atol=1e-10)


class TestSubsample:
    def test_keep_fraction(self, realization):
        block = make_pilot_block(HybridConfig(), 8, 8, [1])[0]
        y = _pilot_output(realization, block)
        mask = subsample(8, 32, 0.6, seed=11)
        assert mask.dtype == bool and mask.shape == (8, 32)
        assert np.count_nonzero(mask) == int(np.ceil(0.6 * 8 * 32))
        assert covers_all_lines(mask)
        # Unobserved entries are zeroed, observed ones untouched.
        obs = observe(y, _unit_noise(y.shape, 0), 0.0, mask)
        kept = obs.mask
        assert np.array_equal(obs.incomplete[kept], y[kept])
        assert np.all(obs.incomplete[~kept] == 0)

    def test_full_keep(self):
        assert subsample(8, 32, 1.0, seed=11).all()

    def test_infeasible_fraction(self):
        with pytest.raises(InfeasibleMaskError):
            subsample(8, 32, 0.05, seed=11)

    def test_deterministic(self):
        m1 = subsample(8, 32, 0.5, seed=7)
        m2 = subsample(8, 32, 0.5, seed=7)
        assert np.array_equal(m1, m2)

    def test_sparse_fraction_still_covers_lines(self):
        # Near the feasibility edge the constructive fallback must still
        # produce a row/column cover.
        for seed in range(20):
            assert covers_all_lines(subsample(8, 32, 0.14, seed=seed))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        constructive=st.booleans(),
    )
    def test_mask_covers_every_line(self, data, rows, cols, seed, constructive):
        # Exact counts reach the feasibility edge, where the cover is
        # hardest.  With no rejection draws allowed, every partial mask
        # comes from the constructive fallback.
        keep = data.draw(
            st.one_of(
                st.floats(min_value=0.01, max_value=1.0),
                st.integers(max(rows, cols), rows * cols).map(lambda k: k / (rows * cols)),
            )
        )
        n_keep = math.ceil(keep * rows * cols)
        attempts = 0 if constructive else frontend._MASK_ATTEMPTS
        with mock.patch.object(frontend, "_MASK_ATTEMPTS", attempts):
            if n_keep < max(rows, cols):
                with pytest.raises(InfeasibleMaskError):
                    subsample(rows, cols, keep, seed=seed)
                return
            mask = subsample(rows, cols, keep, seed=seed)
        assert mask.dtype == bool and mask.shape == (rows, cols)
        assert covers_all_lines(mask)
        assert np.count_nonzero(mask) == n_keep

    def test_covers_all_lines(self):
        mask = np.zeros((3, 4), dtype=bool)
        mask[[0, 1, 2, 0], [0, 1, 2, 3]] = True
        assert covers_all_lines(mask)
        mask[1, 1] = False
        assert not covers_all_lines(mask)


def test_coarse_channel_full_mask_exact(realization):
    # With a square invertible frontend and no mask the pseudo-inverse
    # estimate recovers the channel.
    block = make_pilot_block(HybridConfig(), 8, 8, [9])[0]
    y = _pilot_output(realization, block)
    obs = observe(y, _unit_noise(y.shape, 0), 0.0, np.ones(y.shape, dtype=bool))
    h = coarse_channel(obs, block)
    assert nmse(realization.matrix, h) <= 1e-20


def test_coarse_channel_degrades_with_mask(realization):
    block = make_pilot_block(HybridConfig(), 8, 8, [9])[0]
    y = _pilot_output(realization, block)
    noise = _unit_noise(y.shape, 0)
    full = observe(y, noise, 0.0, np.ones(y.shape, dtype=bool))
    masked = observe(y, noise, 0.0, subsample(*y.shape, 0.5, seed=3))
    err_full = nmse(realization.matrix, coarse_channel(full, block))
    err_masked = nmse(realization.matrix, coarse_channel(masked, block))
    assert err_masked > err_full


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bs=st.integers(1, 8),
    n_ms=st.integers(1, 8),
    keep=st.floats(0.05, 1.0),
    noise_var=st.sampled_from([0.0, 0.3]),
    data=st.data(),
)
def test_coarse_channel_matches_two_pinvs(seed, n_bs, n_ms, keep, noise_var, data):
    # The block's stored pseudo-inverses give the very bits of taking both
    # on each call.
    m_bs = data.draw(st.integers(1, n_bs))
    m_ms = data.draw(st.integers(1, n_ms))
    cfg = HybridConfig(
        m_bs=m_bs, m_ms=m_ms, n_streams=1, pilot_length=data.draw(st.integers(m_bs, 3 * m_bs))
    )
    block = make_pilot_block(cfg, n_bs, n_ms, [seed])[0]
    rng = np.random.default_rng(seed)
    real = sample_realization(ChannelParams(n_bs=n_bs, n_ms=n_ms), rng)
    y = _pilot_output(real, block)
    mask = rng.random(y.shape) < keep
    mask[0, 0] = True
    obs = observe(y, _unit_noise(y.shape, seed), noise_var, mask)
    assert np.array_equal(coarse_channel(obs, block), coarse_channel_two_pinvs(obs, block))


def test_pilot_block_shape_validation():
    products = dict(effective_precoder=np.eye(4), combiner_pinv=np.eye(4), precoder_pinv=np.eye(4))
    with pytest.raises(ShapeError, match="precoder columns 4 != pilot rows 3"):
        PilotBlock(f=np.eye(4), w=np.eye(4), s=np.ones((3, 10)), **products)
    with pytest.raises(ShapeError, match="must be matrices"):
        PilotBlock(f=np.eye(4), w=np.ones(4), s=np.ones((4, 10)), **products)
