"""Tests of the sparse angular gain recovery (batch OMP and helpers)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc import (
    ChannelParams,
    ConfigError,
    DegenerateSystemError,
    HybridConfig,
    OmpOptions,
    angular_factorization,
    batch_omp,
    build_dictionary,
    estimate_phase2,
    make_dictionary,
    make_pilot_block,
    nmse,
    observe,
    r1mc_complete,
    reconstruct_channel,
    sample_realization,
    somp_baseline,
    vec,
)


def _naive_omp(y, d, cap, tol):
    """Reference OMP: explicit residual, LS refit, lowest-index ties."""
    residual = y.astype(np.complex128).copy()
    support = []
    for _ in range(cap):
        if np.linalg.norm(residual) <= tol:
            break
        corr = np.abs(d.conj().T @ residual)
        corr[support] = -1.0
        best = int(np.argmax(corr))  # argmax returns the first maximum
        support.append(best)
        sub = d[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coeffs
    return support


def _unit_norm_dictionary(rng, rows, cols):
    d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return d / np.linalg.norm(d, axis=0)


class TestBatchOmp:
    def test_matches_naive_selection(self):
        rng = np.random.default_rng(200)
        for _ in range(50):
            d = _unit_norm_dictionary(rng, 8, 16)
            y = d @ (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            est = batch_omp(y, d, OmpOptions(sparsity_cap=4))
            ref = _naive_omp(y, d, 4, 1e-8 * np.linalg.norm(y))
            assert list(est.selection_order) == ref

    def test_exact_sparse_recovery(self):
        rng = np.random.default_rng(201)
        d = _unit_norm_dictionary(rng, 16, 24)
        x = np.zeros(24, dtype=complex)
        x[[3, 17]] = [2.0, -1.5j]
        est = batch_omp(d @ x, d, OmpOptions(sparsity_cap=2))
        assert sorted(i for i, _ in est.support) == [3, 17]
        assert np.allclose(est.gains[[3, 17], 0], [2.0, -1.5j], atol=1e-9)
        assert est.residual_norm <= 1e-9

    def test_residual_tolerance_stops_early(self):
        rng = np.random.default_rng(202)
        d = _unit_norm_dictionary(rng, 12, 20)
        y = d[:, 5] * 3.0
        est = batch_omp(y, d, OmpOptions(sparsity_cap=10))
        assert len(est.selection_order) == 1

    def test_tie_breaks_to_lowest_index(self):
        # Duplicate atoms correlate identically; the first must win.
        d = np.eye(4, dtype=complex)
        d = np.concatenate([d[:, :1], d], axis=1)
        y = np.array([1.0, 0, 0, 0], dtype=complex)
        est = batch_omp(y, d, OmpOptions(sparsity_cap=1))
        assert est.selection_order == (0,)

    def test_dependent_columns_raise(self):
        # Two almost-parallel atoms both correlate with the target; once
        # both are picked the support Gram is numerically singular.
        tilt = 1e-8
        d = np.zeros((4, 2), dtype=complex)
        d[:, 0] = [1, 0, 0, 0]
        d[:, 1] = np.array([1, tilt, 0, 0]) / np.sqrt(1 + tilt**2)
        y = np.array([1.0, 0.5, 0, 0], dtype=complex)
        with pytest.raises(DegenerateSystemError):
            batch_omp(y, d, OmpOptions(sparsity_cap=2, residual_tol=0.0))

    def test_orthogonal_residual_stops_cleanly(self):
        # An exact duplicate is never selected: after the first pick the
        # residual is orthogonal to it, so the pursuit stops instead of
        # forcing a singular support.
        d = np.zeros((4, 2), dtype=complex)
        d[:, 0] = [1, 0, 0, 0]
        d[:, 1] = [1, 0, 0, 0]
        y = np.array([1.0, 0.3, 0, 0], dtype=complex)
        est = batch_omp(y, d, OmpOptions(sparsity_cap=2, residual_tol=0.0))
        assert est.selection_order == (0,)
        assert est.residual_norm == pytest.approx(0.3, abs=1e-9)

    def test_grid_shape_mapping(self):
        rng = np.random.default_rng(203)
        d = _unit_norm_dictionary(rng, 16, 12)
        y = d[:, 7] * 2.0
        est = batch_omp(y, d, OmpOptions(sparsity_cap=1), grid_shape=(4, 3))
        # Column k maps to cell (k % rows, k // rows), column-stacking order.
        assert est.support == ((3, 1),)
        assert est.gains.shape == (4, 3)
        assert est.gains[3, 1] == pytest.approx(2.0)

    def test_exhaustive_best_support_small(self):
        rng = np.random.default_rng(204)
        hits = 0
        trials = 100
        for _ in range(trials):
            d = _unit_norm_dictionary(rng, 8, 16)
            x = np.zeros(16, dtype=complex)
            picks = rng.choice(16, size=2, replace=False)
            x[picks] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = d @ x
            est = batch_omp(y, d, OmpOptions(sparsity_cap=2))
            best, best_err = None, np.inf
            for combo in itertools.combinations(range(16), 2):
                sub = d[:, combo]
                coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
                err = np.linalg.norm(y - sub @ coeffs)
                if err < best_err - 1e-12:
                    best, best_err = combo, err
            if sorted(i for i, _ in est.support) == sorted(best):
                hits += 1
        assert hits >= 95


class TestSompBaseline:
    def test_common_support_recovery(self):
        rng = np.random.default_rng(210)
        d = _unit_norm_dictionary(rng, 16, 24)
        x = np.zeros((24, 3), dtype=complex)
        x[[2, 9], :] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        est = somp_baseline(d @ x, d, OmpOptions(sparsity_cap=2))
        assert sorted(i for i, _ in est.support) == [2, 9]

    def test_single_vector_matches_omp(self):
        rng = np.random.default_rng(211)
        d = _unit_norm_dictionary(rng, 12, 18)
        y = d @ (rng.standard_normal(18) + 1j * rng.standard_normal(18))
        single = somp_baseline(y.reshape(-1, 1), d, OmpOptions(sparsity_cap=3))
        plain = batch_omp(y, d, OmpOptions(sparsity_cap=3))
        assert single.selection_order == plain.selection_order


_GAINS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)


@st.composite
def _sparse_problems(draw):
    """Unit-norm random dictionary and a target with a few nonzero gains."""
    rows = draw(st.integers(min_value=4, max_value=12))
    cols = draw(st.integers(min_value=rows, max_value=2 * rows))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = _unit_norm_dictionary(rng, rows, cols)
    k = draw(st.integers(min_value=1, max_value=3))
    picks = draw(st.lists(st.integers(0, cols - 1), min_size=k, max_size=k, unique=True))
    x = np.zeros(cols, dtype=complex)
    x[picks] = draw(st.lists(_GAINS, min_size=k, max_size=k))
    return d, d @ x, k


class TestPursuitProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=_sparse_problems(), extra=st.integers(min_value=0, max_value=2))
    def test_somp_single_column_equals_omp(self, problem, extra):
        d, y, k = problem
        opts = OmpOptions(sparsity_cap=k + extra)
        plain = batch_omp(y, d, opts)
        single = somp_baseline(y[:, None], d, opts)
        assert single.selection_order == plain.selection_order
        assert np.array_equal(single.gains, plain.gains)
        assert single.residual_norm == plain.residual_norm

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_exact_recovery_on_orthonormal_dictionary(self, data, size, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        q, _ = np.linalg.qr(g)
        k = data.draw(st.integers(min_value=1, max_value=size))
        picks = data.draw(
            st.lists(st.integers(0, size - 1), min_size=k, max_size=k, unique=True)
        )
        x = np.zeros(size, dtype=complex)
        x[picks] = data.draw(st.lists(_GAINS, min_size=k, max_size=k))
        est = batch_omp(q @ x, q, OmpOptions(sparsity_cap=k))
        assert sorted(est.selection_order) == sorted(picks)
        assert np.allclose(est.gains[:, 0], x, atol=1e-9 * np.abs(x).max())
        # The Gram-domain residual is sqrt(||y||^2 - <c, D^H y>), a
        # difference of squares, so it is only good to ~sqrt(eps) * ||y||.
        assert est.residual_norm <= 1e-7 * np.linalg.norm(x)


class TestAngularPipeline:
    def test_vec_identity(self):
        """The Kronecker dictionary linearises the two-sided steering map."""
        rng = np.random.default_rng(220)
        dic = make_dictionary(ChannelParams(n_bs=4, n_ms=4), size_ms=6, size_bs=6)
        psi = build_dictionary(dic)
        hbar = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lhs = psi @ vec(hbar)
        rhs = vec(dic.a_ms @ hbar @ dic.a_bs.conj().T)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_reconstruct_round_trip(self):
        rng = np.random.default_rng(221)
        params = ChannelParams(n_clusters=2, rays_per_cluster=1)
        dic = make_dictionary(params)
        real = sample_realization(params, rng, dictionary=dic)
        hbar = angular_factorization(real, dic)
        est = batch_omp(
            build_dictionary(dic) @ vec(hbar),
            build_dictionary(dic),
            OmpOptions(sparsity_cap=2),
            grid_shape=(dic.size_aoa, dic.size_aod),
        )
        h = reconstruct_channel(est, dic)
        assert nmse(real.matrix, h) <= 1e-18

    def test_phase2_composed_target(self):
        rng = np.random.default_rng(223)
        params = ChannelParams(n_clusters=2, rays_per_cluster=1)
        dic = make_dictionary(params)
        real = sample_realization(params, rng, dictionary=dic)
        block = make_pilot_block(HybridConfig(), 8, 8, seed=4)
        obs = observe(real, block)
        completed = r1mc_complete(obs).completed
        est, h = estimate_phase2(completed, block, dic, rank=2)
        assert nmse(real.matrix, h) <= 1e-16
        assert len(est.support) <= 4  # squared rule on rank 2

    def test_phase2_single_ray(self):
        rng = np.random.default_rng(224)
        params = ChannelParams(n_clusters=1, rays_per_cluster=1)
        dic = make_dictionary(params)
        real = sample_realization(params, rng, dictionary=dic)
        block = make_pilot_block(HybridConfig(), 8, 8, seed=5)
        obs = observe(real, block)
        est, _ = estimate_phase2(r1mc_complete(obs).completed, block, dic, rank=1)
        assert len(est.support) == 1
        (i, j) = est.support[0]
        truth = angular_factorization(real, dic)
        ti, tj = np.argwhere(truth).ravel()
        assert (i, j) == (ti, tj)
        # Parameter set carries the grid angles of the recovered path.
        (theta, phi, gain) = est.parameter_set[0]
        assert theta == pytest.approx(dic.grid_aoa[ti])
        assert phi == pytest.approx(dic.grid_aod[tj])
        assert gain == pytest.approx(truth[ti, tj])

    @pytest.mark.parametrize("rule,rank,expected", [("squared", 3, 9), ("linear", 3, 3)])
    def test_sparsity_budget_rules(self, rule, rank, expected):
        rng = np.random.default_rng(225)
        dic = make_dictionary(ChannelParams(n_bs=4, n_ms=4), size_ms=6, size_bs=6)
        block = make_pilot_block(HybridConfig(m_bs=4, m_ms=4, pilot_length=8), 4, 4, seed=6)
        real = sample_realization(ChannelParams(n_bs=4, n_ms=4), rng)
        obs = observe(real, block)
        est, _ = estimate_phase2(
            r1mc_complete(obs).completed,
            block,
            dic,
            rank=rank,
            opts=OmpOptions(rank_cap_rule=rule),
        )
        assert len(est.support) <= expected

    def test_phase2_rejects_bad_rank(self):
        dic = make_dictionary(ChannelParams())
        block = make_pilot_block(HybridConfig(), 8, 8, seed=7)
        with pytest.raises(ConfigError):
            estimate_phase2(np.eye(8), block, dic, rank=0)
