"""Tests of the sparse angular gain recovery (batch OMP and helpers)."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramc import recovery
from ramc.channel import (
    ChannelParams,
    make_dictionary,
    sample_realization,
)
from ramc.completion import r1mc_complete
from ramc.errors import ConfigError, DegenerateSystemError, ShapeError
from ramc.frontend import HybridConfig, make_pilot_block, observe
from ramc.harness import nmse
from ramc.recovery import estimate_phase2, grid_channel, pursuit_atoms, somp_baseline

from oracles import (
    angular_factorization,
    build_dictionary,
    measurement_matrix,
    pursuit_direct_residual,
    vec,
)


def _full_observation(real, block):
    """Noiseless pilot observation W^H H F S on a full mask."""
    y = block.w.conj().T @ real.matrix @ block.effective_precoder
    return observe(y, np.zeros_like(y), 0.0, np.ones(y.shape, dtype=bool))


def _residual_norm(y, d, est):
    """||y - D @ gains||_F of a pursuit estimate on dictionary ``d``."""
    return float(np.linalg.norm(np.reshape(y, (d.shape[0], -1)) - d @ est.gains))


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


def _solo(y, d, cap):
    """``somp_baseline`` on a stack of one: the target ``y`` (one column,
    or several) against ``d``; its estimate or its error."""
    (est,) = somp_baseline(np.reshape(y, (1, len(y), -1)), d, [cap])
    return est


def _phase2(completed, block, dic, rank):
    """``estimate_phase2`` on a stack of one: the estimate (or its error)
    and, for an estimate, its channel."""
    (est,) = estimate_phase2(np.asarray(completed)[None], block, dic, [rank])
    return est, None if isinstance(est, Exception) else grid_channel(est, dic)


def _unit_norm_dictionary(rng, rows, cols):
    d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return d / np.linalg.norm(d, axis=0)


class TestBatchOmp:
    """Single-target pursuit: somp_baseline on a stack of one column."""

    def test_matches_naive_selection(self):
        rng = np.random.default_rng(200)
        for _ in range(50):
            d = _unit_norm_dictionary(rng, 8, 16)
            y = d @ (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            est = _solo(y, d, 4)
            ref = _naive_omp(y, d, 4, 1e-8 * np.linalg.norm(y))
            assert list(est.support) == ref

    def test_exact_sparse_recovery(self):
        rng = np.random.default_rng(201)
        d = _unit_norm_dictionary(rng, 16, 24)
        x = np.zeros(24, dtype=complex)
        x[[3, 17]] = [2.0, -1.5j]
        est = _solo(d @ x, d, 2)
        assert sorted(est.support) == [3, 17]
        assert np.allclose(est.gains[[3, 17], 0], [2.0, -1.5j], atol=1e-9)
        assert _residual_norm(d @ x, d, est) <= 1e-9

    def test_residual_tolerance_stops_early(self):
        rng = np.random.default_rng(202)
        d = _unit_norm_dictionary(rng, 12, 20)
        y = d[:, 5] * 3.0
        est = _solo(y, d, 10)
        assert len(est.support) == 1

    def test_tie_breaks_to_lowest_index(self):
        # Duplicate atoms correlate identically; the first must win.
        d = np.eye(4, dtype=complex)
        d = np.concatenate([d[:, :1], d], axis=1)
        y = np.array([1.0, 0, 0, 0], dtype=complex)
        est = _solo(y, d, 1)
        assert est.support == (0,)

    def test_dependent_columns_raise(self):
        # Two almost-parallel atoms both correlate with the target; once
        # both are picked the support Gram is numerically singular.
        tilt = 1e-8
        d = np.zeros((4, 2), dtype=complex)
        d[:, 0] = [1, 0, 0, 0]
        d[:, 1] = np.array([1, tilt, 0, 0]) / np.sqrt(1 + tilt**2)
        y = np.array([1.0, 0.5, 0, 0], dtype=complex)
        assert isinstance(_solo(y, d, 2), DegenerateSystemError)

    def test_orthogonal_residual_stops_cleanly(self):
        # An exact duplicate is never selected: after the first pick the
        # residual is orthogonal to it, so the pursuit stops instead of
        # forcing a singular support.
        d = np.zeros((4, 2), dtype=complex)
        d[:, 0] = [1, 0, 0, 0]
        d[:, 1] = [1, 0, 0, 0]
        y = np.array([1.0, 0.3, 0, 0], dtype=complex)
        est = _solo(y, d, 2)
        assert est.support == (0,)
        assert _residual_norm(y, d, est) == pytest.approx(0.3, abs=1e-9)

    def test_rejects_empty_cap_and_row_mismatch(self):
        d = np.eye(4, dtype=complex)
        with pytest.raises(ConfigError):
            somp_baseline(d[None, :, :1], d, [0])
        with pytest.raises(ShapeError, match="dictionary rows 4 != target rows 3"):
            somp_baseline(np.ones((1, 3, 2)), d, [1])
        # A stack is three-dimensional and has one cap per target.
        with pytest.raises(ShapeError):
            somp_baseline(d[:, :1], d, [1])
        with pytest.raises(ShapeError):
            somp_baseline(d[None, :, :1], d, [1, 1])

    def test_gain_rows_map_to_grid_cells(self):
        rng = np.random.default_rng(203)
        d = _unit_norm_dictionary(rng, 16, 12)
        y = d[:, 7] * 2.0
        est = _solo(y, d, 1)
        assert est.support == (7,)
        assert est.gains.shape == (12, 1)
        # Column k is cell (k % rows, k // rows) of a column-stacked grid.
        grid = est.gains.reshape((4, 3), order="F")
        assert np.argwhere(grid).tolist() == [[3, 1]]
        assert grid[3, 1] == pytest.approx(2.0)

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
            est = _solo(y, d, 2)
            best, best_err = None, np.inf
            for combo in itertools.combinations(range(16), 2):
                sub = d[:, combo]
                coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
                err = np.linalg.norm(y - sub @ coeffs)
                if err < best_err - 1e-12:
                    best, best_err = combo, err
            if sorted(est.support) == sorted(best):
                hits += 1
        assert hits >= 95


class TestSompBaseline:
    def test_common_support_recovery(self):
        rng = np.random.default_rng(210)
        d = _unit_norm_dictionary(rng, 16, 24)
        x = np.zeros((24, 3), dtype=complex)
        x[[2, 9], :] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        est = _solo(d @ x, d, 2)
        assert sorted(est.support) == [2, 9]

    def test_single_vector_matches_omp(self):
        rng = np.random.default_rng(211)
        d = _unit_norm_dictionary(rng, 12, 18)
        y = d @ (rng.standard_normal(18) + 1j * rng.standard_normal(18))
        (single,) = somp_baseline(y[None, :, None], d, [3])
        assert list(single.support) == _naive_omp(y, d, 3, 1e-8 * np.linalg.norm(y))


_GAINS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)


class TestPursuitProperties:
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
        est = _solo(q @ x, q, k)
        assert sorted(est.support) == sorted(picks)
        assert np.allclose(est.gains[:, 0], x, atol=1e-9 * np.abs(x).max())
        assert _residual_norm(q @ x, q, est) <= 1e-9 * np.linalg.norm(x)

    def test_exact_fit_stops_on_residual(self):
        # One gain-3 atom fits exactly; the residual-tolerance stop must
        # fire before the second atom, with a residual at roundoff level.
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )
        est = _solo(3.0 * q[:, 0], q, 2)
        assert est.support == (0,)
        assert _residual_norm(3.0 * q[:, 0], q, est) <= 1e-12


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        power=st.integers(min_value=-60, max_value=60),
        noisy=st.booleans(),
    )
    def test_pursuit_is_scale_free(self, seed, power, noisy):
        # Scaling the target by a power of two is exact in floating point,
        # so it must scale every gain by exactly that power and keep the
        # support; an absolute correlation floor used to drop atoms once
        # ||y|| fell far below 1.
        rng = np.random.default_rng(seed)
        d = _unit_norm_dictionary(rng, 16, 32)
        y = d[:, rng.choice(32, size=2, replace=False)] @ (rng.standard_normal(2) + 1j)
        if noisy:
            y += 0.01 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        base = _solo(y, d, 4)
        scaled = _solo(np.ldexp(y.real, power) + 1j * np.ldexp(y.imag, power), d, 4)
        assert scaled.support == base.support and len(base.support) >= 2
        expected = np.ldexp(base.gains.real, power) + 1j * np.ldexp(base.gains.imag, power)
        assert scaled.gains.tobytes() == expected.tobytes()
        assert _solo(0.0 * y, d, 4).support == ()


def test_column_stacking_vec_identity():
    """vec(A X B) == (B^T kron A) vec(X), which Phase II's atoms rely on."""
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    assert np.allclose(vec(a @ x @ b), recovery._kron(b.T, a) @ vec(x), atol=1e-12)


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
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = sample_realization(params, rng, dictionary=dic)
        hbar = angular_factorization(real, dic)
        psi = build_dictionary(dic)
        est = _solo(psi @ vec(hbar), psi, 2)
        grid = est.gains.reshape((dic.size_aoa, dic.size_aod), order="F")
        h = dic.a_ms @ grid @ dic.a_bs.conj().T
        assert nmse(real.matrix, h) <= 1e-18

    def test_phase2_composed_target(self):
        rng = np.random.default_rng(223)
        params = ChannelParams(n_clusters=2, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = sample_realization(params, rng, dictionary=dic)
        block = make_pilot_block(HybridConfig(), 8, 8, [4])[0]
        obs = _full_observation(real, block)
        completed = r1mc_complete(obs, rank_hint=2).completed
        est, h = _phase2(completed, block, dic, 2)
        assert nmse(real.matrix, h) <= 1e-16
        assert len(est.support) <= 4  # squared rule on rank 2

    def test_phase2_single_ray(self):
        rng = np.random.default_rng(224)
        params = ChannelParams(n_clusters=1, rays_per_cluster=1)
        dic = make_dictionary(params, size_ms=16, size_bs=16)
        real = sample_realization(params, rng, dictionary=dic)
        block = make_pilot_block(HybridConfig(), 8, 8, [5])[0]
        obs = _full_observation(real, block)
        est, _ = _phase2(r1mc_complete(obs, rank_hint=1).completed, block, dic, 1)
        assert len(est.support) == 1
        j, i = divmod(est.support[0], dic.size_aoa)
        truth = angular_factorization(real, dic)
        ti, tj = np.argwhere(truth).ravel()
        assert (i, j) == (ti, tj)
        # Parameter set carries the grid angles of the recovered path.
        (theta, phi, gain) = est.parameter_set[0]
        assert theta == pytest.approx(dic.grid_aoa[ti])
        assert phi == pytest.approx(dic.grid_aod[tj])
        assert gain == pytest.approx(truth[ti, tj])

    @pytest.mark.parametrize(
        "rank,expected",
        [pytest.param(1, 1, id="squared-1-1"), pytest.param(3, 9, id="squared-3-9")],
    )
    def test_sparsity_budget_rules(self, rank, expected):
        rng = np.random.default_rng(225)
        dic = make_dictionary(ChannelParams(n_bs=4, n_ms=4), size_ms=6, size_bs=6)
        block = make_pilot_block(HybridConfig(m_bs=4, m_ms=4, pilot_length=8), 4, 4, [6])[0]
        real = sample_realization(ChannelParams(n_bs=4, n_ms=4), rng)
        obs = _full_observation(real, block)
        est, _ = _phase2(r1mc_complete(obs, rank_hint=rank).completed, block, dic, rank)
        assert len(est.support) <= expected

    def test_phase2_returns_its_pursuit_error_in_its_slot(self, monkeypatch):
        # An error of one slot's pursuit is that slot's entry, not raised.
        failure = DegenerateSystemError("selected columns [1, 0] are numerically dependent")
        real_pursuit = recovery._pursuit

        def fail_second(targets, atoms, caps):
            estimates = real_pursuit(targets, atoms, caps)
            estimates[1] = failure
            return estimates

        monkeypatch.setattr(recovery, "_pursuit", fail_second)
        dic = make_dictionary(ChannelParams(), size_ms=8, size_bs=8)
        block = make_pilot_block(HybridConfig(), 8, 8, [7])[0]
        first, second = estimate_phase2(np.ones((2, 8, 32), dtype=complex), block, dic, [2, 2])
        assert second is failure and first.support and len(first.parameter_set) == 4

    def test_phase2_rejects_bad_rank(self):
        dic = make_dictionary(ChannelParams(), size_ms=16, size_bs=16)
        block = make_pilot_block(HybridConfig(), 8, 8, [7])[0]
        with pytest.raises(ConfigError):
            estimate_phase2(np.ones((2, 8, 32), dtype=complex), block, dic, [2, 0])


class TestPhase2Atoms:
    @pytest.mark.parametrize("oversampling", [1, 2])
    def test_factored_atoms_match_the_composed_dictionary(self, monkeypatch, oversampling):
        # The atoms estimate_phase2 pursues, built from the two Kronecker
        # factors, against those of the composed product; oversampled
        # steering columns are not orthogonal, so both grids are covered.
        params = ChannelParams()
        dic = make_dictionary(
            params, size_ms=oversampling * params.n_ms, size_bs=oversampling * params.n_bs
        )
        block = make_pilot_block(HybridConfig(), params.n_bs, params.n_ms, [8])[0]
        seen = []
        real_pursuit = recovery._pursuit

        def recording_pursuit(targets, atoms, caps):
            seen.append(atoms)
            return real_pursuit(targets, atoms, caps)

        monkeypatch.setattr(recovery, "_pursuit", recording_pursuit)
        rng = np.random.default_rng(226)
        completed = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        estimate_phase2(completed[None], block, dic, [2])
        (atoms,) = seen
        reference = pursuit_atoms(measurement_matrix(block) @ build_dictionary(dic))
        for name in ("unit", "norms", "gram"):
            got, want = getattr(atoms, name), getattr(reference, name)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _reference_phase2(completed, block, dic, rank):
    """The former double-scaled Phase II, kept as a reference.

    The composed atoms are scaled to unit norm, the pursuit scales them
    to unit norm again, and both scalings are divided back out of the
    gains.  Returns (support, gains, angles).
    """
    d = measurement_matrix(block) @ build_dictionary(dic)
    cap = d.shape[1] if rank is None else min(rank**2, d.shape[1])
    scales = np.linalg.norm(d, axis=0)
    scales[scales <= 1e-14 * scales.max()] = 1.0
    d = d / scales
    norms = np.linalg.norm(d, axis=0)
    d_n = d / norms
    gram = d_n.conj().T @ d_n
    y = vec(completed)[:, None]
    h0 = d_n.conj().T @ y
    residual = scale = float(np.linalg.norm(y))
    support = []
    coeffs = np.zeros((0, 1), dtype=complex)
    while len(support) < cap and residual > 1e-8 * scale:
        score = np.linalg.norm(h0 - gram[:, support] @ coeffs, axis=1)
        score[support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 1e-13 * max(scale, 1.0):
            break
        support.append(best)
        gram_s = gram[np.ix_(support, support)]
        if np.linalg.cond(gram_s) > 1e12:
            raise DegenerateSystemError("numerically dependent")
        coeffs = np.linalg.solve(gram_s, h0[support, :])
        residual = float(np.linalg.norm(y - d_n[:, support] @ coeffs))
    gains = coeffs[:, 0] / norms[support] / scales[support]
    angles = [(dic.grid_aoa[k % dic.size_aoa], dic.grid_aod[k // dic.size_aoa]) for k in support]
    return support, gains, angles


@st.composite
def _phase2_problems(draw):
    """Full-rank pilot block on a critically sampled grid, random completion."""
    n_bs = draw(st.integers(2, 4))
    n_ms = draw(st.integers(2, 4))
    params = ChannelParams(n_bs=n_bs, n_ms=n_ms)
    dic = make_dictionary(params, size_ms=n_ms, size_bs=n_bs)
    hybrid = HybridConfig(
        m_bs=n_bs, m_ms=n_ms, n_streams=1, pilot_length=draw(st.integers(n_bs, 2 * n_bs))
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    block = make_pilot_block(hybrid, n_bs, n_ms, [seed])[0]
    # Quantised analog stages can draw parallel columns; a singular F or W
    # makes atoms exactly parallel, and their tied scores are then ordered
    # by rounding alone, differently in the two scalings.
    assume(np.linalg.matrix_rank(measurement_matrix(block)) == n_bs * n_ms)
    rng = np.random.default_rng(seed)
    shape = (n_ms, hybrid.pilot_length)
    completed = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return completed, block, dic


class TestPhase2Reference:
    @settings(max_examples=60, deadline=None)
    @given(problem=_phase2_problems(), rank=st.none() | st.integers(1, 3))
    def test_single_scaling_matches_double_scaling(self, problem, rank):
        completed, block, dic = problem
        support, gains, angles = _reference_phase2(completed, block, dic, rank)
        est, _ = _phase2(completed, block, dic, rank)
        assert list(est.support) == support
        new_gains = np.array([gain for _, _, gain in est.parameter_set])
        assert np.abs(new_gains - gains).max() <= 1e-9 * np.abs(gains).max()
        assert np.array_equal(est.gains[support, 0], new_gains)
        assert [(aoa, aod) for aoa, aod, _ in est.parameter_set] == angles


class TestStackedPhase2:
    @settings(max_examples=40, deadline=None)
    @given(
        problem=_phase2_problems(),
        ranks=st.lists(st.none() | st.integers(1, 3), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_each_slot_as_in_a_stack_of_one(self, problem, ranks, seed):
        # One call pursues every slot on atoms built once; each slot's
        # support, gains and parameter set are bit for bit what a stack of
        # one gives, whatever the other slots' ranks.
        completed, block, dic = problem
        rng = np.random.default_rng(seed)
        stack = [completed] + [
            rng.standard_normal(completed.shape) + 1j * rng.standard_normal(completed.shape)
            for _ in ranks[1:]
        ]
        stacked = estimate_phase2(np.stack(stack), block, dic, ranks)
        assert len(stacked) == len(ranks)
        for target, rank, est in zip(stack, ranks, stacked):
            alone, _ = _phase2(target, block, dic, rank)
            assert _same(est, alone)
            assert est.parameter_set == alone.parameter_set


def _reference_somp(y, d, cap):
    """SOMP with an explicit ``cond`` check and ``solve`` on the support
    Gram matrix at every atom, kept as a reference.  Returns
    (support, gains on the support)."""
    norms = np.linalg.norm(d, axis=0)
    d_n = d / norms
    gram = d_n.conj().T @ d_n
    h0 = d_n.conj().T @ y
    residual = scale = float(np.linalg.norm(y))
    support = []
    coeffs = np.zeros((0, y.shape[1]), dtype=complex)
    while len(support) < min(cap, d.shape[1]) and residual > 1e-8 * scale:
        score = np.linalg.norm(h0 - gram[:, support] @ coeffs, axis=1)
        score[support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 1e-13 * max(scale, 1.0):
            break
        support.append(best)
        gram_s = gram[np.ix_(support, support)]
        if np.linalg.cond(gram_s) > 1e12:
            raise DegenerateSystemError("numerically dependent")
        coeffs = np.linalg.solve(gram_s, h0[support, :])
        residual = float(np.linalg.norm(y - d_n[:, support] @ coeffs))
    return support, coeffs / norms[support][:, None]


@st.composite
def _somp_problems(draw):
    """Random dictionary with uneven column norms, several dense targets
    and a cap below the row count."""
    rows = draw(st.integers(min_value=3, max_value=12))
    cols = draw(st.integers(min_value=rows, max_value=2 * rows))
    targets = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    d *= rng.uniform(0.1, 10.0, size=cols)
    y = rng.standard_normal((rows, targets)) + 1j * rng.standard_normal((rows, targets))
    return y, d, draw(st.integers(min_value=1, max_value=rows - 1))


class TestSompReference:
    @settings(max_examples=60, deadline=None)
    @given(problem=_somp_problems())
    def test_cholesky_update_matches_solve(self, problem):
        y, d, cap = problem
        support, gains = _reference_somp(y, d, cap)
        est = _solo(y, d, cap)
        assert list(est.support) == support
        assert np.abs(est.gains[support] - gains).max() <= 1e-9 * np.abs(gains).max()


@st.composite
def _screen_problems(draw):
    """A dictionary with uneven column norms, one or several targets, and
    a cap.  The sparse targets combine k < cap atoms of an orthogonal
    dictionary, exactly or with noise at 1e-10 of their norm, so the
    residual stop fires after k atoms; with that noise no other stop
    would."""
    targets = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        rows = draw(st.integers(min_value=3, max_value=12))
        cols = draw(st.integers(min_value=2, max_value=2 * rows))
        d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        y = rng.standard_normal((rows, targets)) + 1j * rng.standard_normal((rows, targets))
        return y, d * rng.uniform(0.1, 10.0, size=cols), draw(st.integers(1, rows)), None
    rows = draw(st.integers(min_value=3, max_value=12))
    g = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    q = np.linalg.qr(g)[0] * rng.uniform(0.1, 10.0, size=rows)
    k = draw(st.integers(min_value=1, max_value=rows - 1))
    picks = rng.choice(rows, size=k, replace=False)
    x = rng.standard_normal((k, targets)) + 1j * rng.standard_normal((k, targets))
    y = q[:, picks] @ x
    if draw(st.booleans()):
        noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y += 1e-10 * np.linalg.norm(y) / np.linalg.norm(noise) * noise
    return y, q, draw(st.integers(k + 1, rows)), k


class TestResidualScreen:
    @settings(max_examples=80, deadline=None)
    @given(problem=_screen_problems())
    def test_matches_the_direct_residual_pursuit(self, problem):
        # The Gram-domain screen and the gathered buffers leave every
        # selection, its order and every gain bit as the pursuit that takes
        # the residual directly after every atom.
        y, d, cap, k = problem
        atoms = pursuit_atoms(d)
        for targets in (y[:, :1], y):
            expected = pursuit_direct_residual(targets, atoms, cap)
            (est,) = recovery._pursuit(targets[None], atoms, [cap])
            assert est.support == expected.support
            assert est.gains.tobytes() == expected.gains.tobytes()
            if k is not None:
                # The residual stop fired after the k true atoms.
                assert len(est.support) == k < cap


@st.composite
def _stacks(draw):
    """A dictionary with uneven column norms and a stack of 1-8 targets
    with mixed caps, some above the atom count.  A target is dense, zero,
    or one atom times 3 with noise at 1e-10 of its norm, which one atom
    fits to below the residual tolerance but above the correlation floor,
    so only the residual stop ends it there.  Returns (targets,
    dictionary, caps, kinds)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = draw(st.integers(min_value=3, max_value=10))
    n_atoms = draw(st.integers(min_value=2, max_value=2 * rows))
    cols = draw(st.sampled_from([1, 3]))
    d = rng.standard_normal((rows, n_atoms)) + 1j * rng.standard_normal((rows, n_atoms))
    d *= rng.uniform(0.1, 10.0, size=n_atoms)
    kinds = draw(st.lists(st.sampled_from(["dense", "zero", "atom"]), min_size=1, max_size=8))
    targets = []
    for kind in kinds:
        if kind == "dense":
            dense = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            targets.append(10.0 ** rng.uniform(-2, 2) * dense)
        elif kind == "zero":
            targets.append(np.zeros((rows, cols), dtype=complex))
        else:
            atom = 3.0 * np.repeat(d[:, :1], cols, axis=1)
            noise = rng.standard_normal(atom.shape) + 1j * rng.standard_normal(atom.shape)
            targets.append(atom + 1e-10 * np.linalg.norm(atom) / np.linalg.norm(noise) * noise)
    caps = draw(st.lists(st.integers(1, n_atoms + 2), min_size=len(kinds), max_size=len(kinds)))
    return np.stack(targets), d, caps, kinds


def _same(a, b):
    """Two pursuit results are equal bit for bit, or are equal errors."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a.support == b.support and a.gains.tobytes() == b.gains.tobytes()


class TestStackedPursuit:
    @settings(max_examples=80, deadline=None)
    @given(problem=_stacks(), order=st.randoms(use_true_random=False))
    def test_each_target_as_in_a_stack_of_one(self, problem, order):
        # Every slot of a stack is what its target gets alone, and
        # reordering the stack moves each slot's estimate with it.
        y, d, caps, kinds = problem
        stacked = somp_baseline(y, d, caps)
        assert len(stacked) == len(y)
        for target, cap, kind, est in zip(y, caps, kinds, stacked):
            assert _same(est, somp_baseline(target[None], d, [cap])[0])
            if kind == "zero":
                assert est.support == () and not est.gains.any()
            elif kind == "atom" and cap > 1:
                # The residual stop ended it below its cap.
                assert est.support == (0,)
        perm = list(range(len(y)))
        order.shuffle(perm)
        shuffled = somp_baseline(y[perm], d, [caps[i] for i in perm])
        assert all(_same(shuffled[j], stacked[i]) for j, i in enumerate(perm))

    def test_empty_stack(self):
        assert somp_baseline(np.zeros((0, 4, 2)), np.eye(4), []) == []


@pytest.mark.parametrize("tilt", [1e-8, 1e-7])
def test_near_parallel_atoms_raise_on_the_pivot(tilt):
    # Both almost-parallel atoms are selected; the second one's Cholesky
    # pivot 1 - |<a0, a1>|^2 ~ tilt^2 is at roundoff level.
    d = np.zeros((4, 3), dtype=complex)
    d[:, 0] = [1, 0, 0, 0]
    d[:, 1] = np.array([1, tilt, 0, 0]) / np.sqrt(1 + tilt**2)
    d[:, 2] = [0, 0, 1, 0]
    y = np.array([[1.0, 0.7], [0.5, 0.2], [0, 0], [0, 0]], dtype=complex)
    for target in (y[:, 0], y):
        est = _solo(target, d, 2)
        assert isinstance(est, DegenerateSystemError)
        assert re.search(r"columns \[1, 0\] are numerically", str(est))
    # In a stack, the error fails its own slot alone: the target that
    # needs only atom 0 gets, bit for bit, what it gets on its own.
    one_atom = 2.0 * d[:, :1]
    stacked = somp_baseline(np.stack([y[:, :1], one_atom]), d, [2, 2])
    assert isinstance(stacked[0], DegenerateSystemError)
    assert str(stacked[0]) == str(_solo(y[:, 0], d, 2))
    alone = _solo(one_atom, d, 2)
    assert stacked[1].support == alone.support == (0,)
    assert stacked[1].gains.tobytes() == alone.gains.tobytes()


def test_separated_atoms_pass_the_pivot():
    # A pivot of ~1e-10 lies above the roundoff floor: both atoms are kept
    # and the two-column target is fitted exactly.
    tilt = 1e-5
    d = np.zeros((4, 2), dtype=complex)
    d[:, 0] = [1, 0, 0, 0]
    d[:, 1] = np.array([1, tilt, 0, 0]) / np.sqrt(1 + tilt**2)
    y = np.array([[1.0, 0.7], [0.5, 0.2], [0, 0], [0, 0]], dtype=complex)
    est = _solo(y, d, 2)
    assert sorted(est.support) == [0, 1]
    assert _residual_norm(y, d, est) <= 1e-6 * np.linalg.norm(y)
