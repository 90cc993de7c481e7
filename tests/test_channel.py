"""Tests of the clustered geometric channel model and angular dictionary."""

import math

import numpy as np
import pytest

from ramc.channel import (
    SAMPLE_PERIOD,
    AngularDictionary,
    ChannelParams,
    ChannelRealization,
    PathCluster,
    Ray,
    channel_matrix,
    evolve,
    make_dictionary,
    sample_realization,
    steering_vector,
    _pulse,
)
from ramc.errors import ConfigError

from oracles import angular_factorization


def _single_ray_realization(params, aoa, aod, gain=1.0 + 0.0j):
    ray = Ray(gain=gain, aoa_offset=0.0, aod_offset=0.0, delay=0.0, doppler=0.0)
    cluster = PathCluster(mean_aoa=aoa, mean_aod=aod, rays=(ray,))
    return ChannelRealization(params=params, clusters=(cluster,))


class TestSteeringVector:
    @pytest.mark.parametrize("n", [1, 4, 8, 64])
    def test_unit_norm(self, n):
        v = steering_vector(n, 0.7)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_linear_phase(self):
        v = steering_vector(8, 0.3)
        # Adjacent elements differ by a constant phase factor.
        ratios = v[1:] / v[:-1]
        assert np.allclose(ratios, ratios[0], atol=1e-12)
        assert abs(np.angle(ratios[0]) - np.pi * math.sin(0.3)) <= 1e-12

    def test_broadside_is_constant(self):
        v = steering_vector(6, 0.0)
        assert np.allclose(v, v[0])


class TestDictionary:
    def test_default_size_and_norms(self):
        params = ChannelParams()
        dic = make_dictionary(params, size_ms=16, size_bs=12)
        assert dic.size_aoa == 16 and dic.size_aod == 12
        assert np.allclose(np.linalg.norm(dic.a_ms, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(dic.a_bs, axis=0), 1.0, atol=1e-12)

    def test_uniform_in_sine(self):
        dic = make_dictionary(ChannelParams(n_bs=4, n_ms=4), size_ms=8, size_bs=8)
        sines = np.sin(dic.grid_aoa)
        steps = np.diff(sines)
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_grid_smaller_than_array_rejected(self):
        with pytest.raises(ConfigError):
            make_dictionary(ChannelParams(n_bs=8, n_ms=8), size_ms=4, size_bs=16)

    def test_critical_grid_is_orthonormal(self):
        # At one grid point per antenna the steering matrix is a unitary
        # DFT-like basis, which later makes greedy selection exact.
        dic = make_dictionary(ChannelParams(n_bs=8, n_ms=8), size_ms=8, size_bs=8)
        gram = dic.a_ms.conj().T @ dic.a_ms
        assert np.allclose(gram, np.eye(8), atol=1e-10)


class TestChannelParams:
    def test_ray_counts_broadcast(self):
        # Every cluster, a scheduled birth included, holds rays_per_cluster rays.
        rng = np.random.default_rng(31)
        real = sample_realization(ChannelParams(n_clusters=3, rays_per_cluster=2), rng)
        (grown,) = evolve(real, steps=1, rank_schedule=((1, 4),), rng=rng)
        assert [len(c.rays) for c in real.clusters] == [2, 2, 2]
        assert [len(c.rays) for c in grown.clusters] == [2, 2, 2, 2]

    def test_rays_per_cluster_is_an_int(self):
        for rays in ((1, 2, 3), [1, 2, 3], 1.5):
            with pytest.raises(ConfigError, match="rays_per_cluster"):
                ChannelParams(n_clusters=3, rays_per_cluster=rays)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bs": 0},
            {"n_ms": 0},
            {"n_clusters": 0},
            {"rays_per_cluster": 0},
            {"angle_spread": -0.1},
            {"angle_spread": math.inf},
            {"angle_spread": math.nan},
            {"velocity": math.nan},
            {"velocity": math.inf},
            {"velocity": 1e308},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelParams(**kwargs)


class TestChannelMatrix:
    def test_single_ray_outer_product(self):
        params = ChannelParams(n_bs=8, n_ms=8, n_clusters=1, rays_per_cluster=1)
        real = _single_ray_realization(params, aoa=0.9, aod=1.4)
        a_ms = steering_vector(8, 0.9)
        a_bs = steering_vector(8, 1.4)
        expected = math.sqrt(64.0) * np.outer(a_ms, a_bs.conj())
        assert np.allclose(real.matrix, expected, atol=1e-12)

    def test_rank_bounded_by_ray_count(self):
        rng = np.random.default_rng(7)
        params = ChannelParams(n_clusters=2, rays_per_cluster=2)
        for _ in range(20):
            real = sample_realization(params, rng)
            s = np.linalg.svd(real.matrix, compute_uv=False)
            numerical_rank = int(np.sum(s > 1e-10 * s[0]))
            assert numerical_rank <= real.total_rays

    def test_average_energy(self):
        # Unit-variance ray gains with the sqrt(N_BS*N_MS/L_P) scale give
        # E||H||_F^2 == N_BS * N_MS.
        rng = np.random.default_rng(8)
        params = ChannelParams(n_clusters=2, rays_per_cluster=2)
        energies = [
            np.linalg.norm(sample_realization(params, rng).matrix) ** 2
            for _ in range(400)
        ]
        assert np.mean(energies) == pytest.approx(64.0, rel=0.15)

    def test_matrix_is_explicit_ray_sum(self):
        rng = np.random.default_rng(9)
        params = ChannelParams(n_clusters=3, rays_per_cluster=2)
        real = sample_realization(params, rng)
        scale = math.sqrt(params.n_bs * params.n_ms / 6)
        expected = np.zeros((params.n_ms, params.n_bs), dtype=complex)
        for cluster in real.clusters:
            for ray in cluster.rays:
                pulse = _pulse(ray.delay)
                a_ms = params.steering_ms(cluster.mean_aoa - ray.aoa_offset)
                a_bs = params.steering_bs(cluster.mean_aod - ray.aod_offset)
                expected += scale * ray.gain * pulse * np.outer(a_ms, a_bs.conj())
        assert np.allclose(real.matrix, expected, atol=1e-12)
        assert np.array_equal(channel_matrix(real), real.matrix)


class TestAngularFactorization:
    def test_one_ray_one_nonzero(self):
        params = ChannelParams(n_clusters=1, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = _single_ray_realization(params, dic.grid_aoa[3], dic.grid_aod[11])
        hbar = angular_factorization(real, dic)
        assert np.count_nonzero(hbar) == 1
        assert hbar[3, 11] != 0

    def test_reconstruction_four_rays(self):
        rng = np.random.default_rng(17)
        params = ChannelParams(n_clusters=4, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        for _ in range(10):
            real = sample_realization(params, rng, dictionary=dic)
            hbar = angular_factorization(real, dic)
            recon = dic.a_ms @ hbar @ dic.a_bs.conj().T
            rel = np.linalg.norm(recon - real.matrix) / np.linalg.norm(real.matrix)
            assert rel <= 1e-9

    def test_off_grid_ray_raises(self):
        params = ChannelParams(n_clusters=1, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = _single_ray_realization(params, 0.123456, dic.grid_aod[0])
        with pytest.raises(ValueError, match="cluster 0 ray 0"):
            angular_factorization(real, dic)

    def test_grid_sampling_lands_on_grid(self):
        rng = np.random.default_rng(18)
        params = ChannelParams(n_clusters=2, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = sample_realization(params, rng, dictionary=dic)
        angular_factorization(real, dic)  # must not raise

    def test_clusters_never_share_grid_lines(self):
        # Sharing an AoA row or AoD column across clusters collapses the
        # matrix rank below the ray count; the sampler rejects such draws.
        rng = np.random.default_rng(19)
        params = ChannelParams(n_clusters=4, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=8, size_bs=8)
        for _ in range(50):
            real = sample_realization(params, rng, dictionary=dic)
            hbar = angular_factorization(real, dic)
            rows, cols = np.nonzero(hbar)
            assert len(set(rows.tolist())) == real.total_rays
            assert len(set(cols.tolist())) == real.total_rays


class TestEvolve:
    def test_length_and_time_indices(self):
        # The returned list holds the new snapshots only, not the input.
        rng = np.random.default_rng(27)
        real = sample_realization(ChannelParams(), rng)
        track = evolve(real, steps=5, rng=rng)
        assert len(track) == 5
        assert [r.time_index for r in track] == [1, 2, 3, 4, 5]

    def test_doppler_rotates_matrix(self):
        rng = np.random.default_rng(28)
        real = sample_realization(ChannelParams(), rng)
        track = evolve(real, steps=2, rng=rng)
        assert not np.allclose(track[0].matrix, real.matrix)
        # Geometry is frozen without an angle walk; only phases move.
        assert track[0].clusters[0].mean_aoa == real.clusters[0].mean_aoa

    def test_rank_schedule_changes_cluster_count(self):
        rng = np.random.default_rng(29)
        params = ChannelParams(n_clusters=2, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = sample_realization(params, rng, dictionary=dic)
        track = evolve(real, steps=6, rank_schedule=((3, 4),), rng=rng, dictionary=dic)
        assert [len(r.clusters) for r in track] == [2, 2, 4, 4, 4, 4]
        for r in track:
            angular_factorization(r, dic)  # birthed clusters stay on grid

    def test_schedule_can_shrink(self):
        rng = np.random.default_rng(30)
        real = sample_realization(ChannelParams(n_clusters=3), rng)
        track = evolve(real, steps=4, rank_schedule=((2, 1),), rng=rng)
        assert [len(r.clusters) for r in track] == [3, 1, 1, 1]


class TestRaisedCosine:
    def test_nyquist_zero_crossings(self):
        assert _pulse(0.0) == 1.0
        others = [_pulse(k * SAMPLE_PERIOD) for k in (-3, -2, -1, 1, 2, 3)]
        assert np.allclose(others, 0.0, atol=1e-12)

    def test_roll_off_at_the_longest_delay(self):
        # sinc(1/4) cos(pi beta / 4) / (1 - (beta / 2)^2) at roll-off beta = 0.3.
        expected = math.sin(math.pi / 4) / (math.pi / 4) * math.cos(0.075 * math.pi) / 0.9775
        assert _pulse(0.25 * SAMPLE_PERIOD) == pytest.approx(expected, rel=1e-12)


def test_dictionary_projection_helpers():
    dic = make_dictionary(ChannelParams(n_bs=4, n_ms=4), size_ms=8, size_bs=8)
    assert isinstance(dic, AngularDictionary)
    assert dic.a_ms.shape == (4, 8)
    assert dic.a_bs.shape == (4, 8)
    assert len(dic.grid_aoa) == 8 and len(dic.grid_aod) == 8
