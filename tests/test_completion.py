"""Tests for rank estimation and the completion solver."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramc.channel import ChannelParams, sample_realization
from ramc import completion
from ramc.completion import (
    MAX_SWEEPS,
    _update_factor,
    estimate_rank,
    r1mc_complete,
)
from ramc.config import ExperimentConfig
from ramc.errors import DegenerateSystemError
from ramc.frontend import (
    HybridConfig,
    ObservationSet,
    covers_all_lines,
    make_pilot_block,
    observe,
    subsample,
)
from ramc.harness import run_sweep, summarize_records

import oracles


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
        mask = rng.random((rows, cols)) < keep
        if covers_all_lines(mask):
            break
    return ObservationSet(mask=mask, incomplete=np.where(mask, m, 0.0))


class TestEstimateRank:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_exact_on_noiseless(self, rank):
        rng = np.random.default_rng(100 + rank)
        for _ in range(20):
            m = _low_rank(rng, 16, 16, rank)
            assert estimate_rank(m) == rank

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateSystemError):
            estimate_rank(np.zeros((4, 4)))


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
        mask = np.ones((10, 10), dtype=bool)
        obs = ObservationSet(mask=mask, incomplete=m.copy())
        result = r1mc_complete(obs, rank_hint=2)
        assert np.allclose(result.completed, m, atol=1e-12)
        assert result.iterations == 0
        assert result.rank == 2
        assert result.converged is True
        assert result.final_residual == 0.0
        assert result.trace == ()
        assert not np.shares_memory(result.completed, obs.incomplete)

    def test_observed_entries_consistent(self):
        rng = np.random.default_rng(144)
        m = _low_rank(rng, 16, 16, 2)
        obs = _masked_observation(rng, m, keep=0.6)
        result = r1mc_complete(obs, rank_hint=2)
        kept = obs.mask
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

    def test_noisy_solves_stop_by_own_rule(self):
        # Noisy data cannot meet the epsilon test; the solver must still
        # stop once its fit reaches the noise level, not at MAX_SWEEPS.
        channel, hybrid = ChannelParams(), HybridConfig()
        results = []
        for snr_db in (5.0, 15.0, 25.0):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                real = sample_realization(channel, rng)
                block = make_pilot_block(hybrid, channel.n_bs, channel.n_ms, seed=rng)
                clean = block.w.conj().T @ real.matrix @ block.effective_precoder
                noise_var = np.linalg.norm(clean) ** 2 / (clean.size * 10 ** (snr_db / 10))
                noise = rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape)
                obs = observe(clean, noise, noise_var, subsample(*clean.shape, 0.6, seed=rng))
                assert obs.noise_var == noise_var
                for hint in (2, 8):
                    results.append(r1mc_complete(obs, rank_hint=hint))
        stopped = [r.converged and r.iterations < MAX_SWEEPS for r in results]
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


@st.composite
def _completion_problems(draw):
    """A noisy low-rank matrix, a mask touching every line, a hint and a
    sweep cap that leaves some solves capped and unconverged."""
    rows, cols = draw(st.tuples(st.integers(2, 12), st.integers(2, 12)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = _low_rank(rng, rows, cols, draw(st.integers(1, min(rows, cols))))
    m += draw(st.sampled_from([0.0, 1e-3, 0.1])) * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )
    keep = draw(st.sampled_from([0.3, 0.6, 0.8, 1.0]))
    assume(math.ceil(keep * rows * cols) >= max(rows, cols))
    mask = subsample(rows, cols, keep, seed=rng)
    obs = ObservationSet(
        mask=mask,
        incomplete=np.where(mask, m, 0.0),
        noise_var=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    )
    hint = draw(st.integers(1, 8))
    return obs, hint, draw(st.sampled_from([1, 40, MAX_SWEEPS]))


@settings(max_examples=60, deadline=None)
@given(problem=_completion_problems())
def test_result_is_its_own_model(problem):
    # final_residual, rank and the last trace row describe `completed`
    # itself, not a model taken before the last weight change.
    obs, hint, max_sweeps = problem
    with mock.patch.object(completion, "MAX_SWEEPS", max_sweeps):
        result = r1mc_complete(obs, rank_hint=hint)
    assert result.iterations <= max_sweeps
    kept = obs.mask
    assert result.final_residual == float(
        np.linalg.norm((result.completed - obs.incomplete)[kept])
    )
    if result.trace:
        _, _, feas, rank = result.trace[-1]
        assert feas == result.final_residual
        assert rank == result.rank
    assert np.linalg.matrix_rank(result.completed) <= result.rank
    assert type(result.converged) is bool


def _vdot_norm(x):
    return math.sqrt(np.vdot(x, x).real)


def _reference_update(residual, u, vh, norm=_vdot_norm):
    """The power step written plainly, with @ and ``norm`` (sqrt(Re vdot(x, x))
    by default)."""
    vh_new = u.conj() @ residual
    nv = norm(vh_new)
    if nv == 0.0:
        return u, vh, 0.0
    vh = vh_new / nv
    u_new = residual @ vh.conj()
    nu = norm(u_new)
    if nu == 0.0:
        return u, vh, 0.0
    return u_new / nu, vh, nu


@st.composite
def _factor_problems(draw):
    """Residual and factor rows as the solver passes them.

    u and vh are rows of C-ordered factor matrices; the residual is
    either full rank or low rank plus a small perturbation.  Shapes
    start at 2 x 2, where the exactness contract holds.
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
    left = rng.standard_normal((n_factors, rows)) + 1j * rng.standard_normal((n_factors, rows))
    right_h = rng.standard_normal((n_factors, cols)) + 1j * rng.standard_normal((n_factors, cols))
    left /= np.linalg.norm(left, axis=1)[:, None]
    right_h /= np.linalg.norm(right_h, axis=1)[:, None]
    return residual, left[q], right_h[q]


class TestUpdateFactor:
    @settings(max_examples=80, deadline=None)
    @given(problem=_factor_problems())
    def test_bit_identical_to_plain_loop(self, problem):
        residual, u, vh = problem
        before = residual.copy()
        u_fast, vh_fast, a_fast = _update_factor(residual, u, vh)
        u_ref, vh_ref, a_ref = _reference_update(residual, u, vh)
        assert np.array_equal(u_fast, u_ref)
        assert np.array_equal(vh_fast, vh_ref)
        assert a_fast == a_ref
        assert np.array_equal(residual, before)

    def test_zero_residual_returns_inputs(self):
        left = np.ones((3, 8), dtype=complex) / np.sqrt(8)
        right_h = np.ones((3, 32), dtype=complex) / np.sqrt(32)
        u, vh, a = _update_factor(np.zeros((8, 32), dtype=complex), left[1], right_h[1])
        assert np.array_equal(u, left[1])
        assert np.array_equal(vh, right_h[1])
        assert a == 0.0


def test_sweep_medians_robust_to_roundoff(monkeypatch):
    # A roundoff-level change in the power iteration must not move the
    # sweep's medians: the solver stops at the noise level, before the
    # dual ascent amplifies such differences.
    cfg = ExperimentConfig(snr_grid_db=(5.0, 15.0, 25.0), n_trials=2, time_steps=2)
    variants = ("rank_aware", "fixed_rank:2", "rank_oblivious")
    base = summarize_records(run_sweep(cfg, variants=variants))

    # The solver norms its power steps with one vdot; np.linalg.norm
    # rounds differently in the last bit.
    monkeypatch.setattr(
        completion,
        "_update_factor",
        lambda residual, u, vh: _reference_update(residual, u, vh, norm=np.linalg.norm),
    )
    moved = summarize_records(run_sweep(cfg, variants=variants))
    assert moved.variants == base.variants and moved.snrs == base.snrs
    assert np.max(np.abs(moved.median_nmse_db - base.median_nmse_db)) <= 0.1


@st.composite
def _partial_problems(draw):
    """A noisy low-rank matrix on a partial mask with at least the
    k (rows + cols - k) entries that fix a rank-k matrix, the solver's
    factor count k as its hint, drawn or the zero fill's
    :func:`estimate_rank`, and a cap of 1 or 40 sweeps.  The noise level
    is the one the noise was drawn at, as the harness sets it."""
    rows, cols = draw(st.tuples(st.integers(3, 12), st.integers(3, 12)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = _low_rank(rng, rows, cols, draw(st.integers(1, min(rows, cols))))
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    m += sigma * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    hint = draw(st.integers(1, min(rows, cols) - 1))
    n_keep = draw(st.integers(hint * (rows + cols - hint), rows * cols - 1))
    mask = subsample(rows, cols, n_keep / (rows * cols), seed=rng)
    assume(not mask.all())
    obs = ObservationSet(mask=mask, incomplete=np.where(mask, m, 0.0), noise_var=2 * sigma**2)
    if draw(st.booleans()):
        hint = estimate_rank(obs.incomplete)
        assume(hint * (rows + cols - hint) <= n_keep)
    return obs, hint, draw(st.sampled_from([1, 40]))


# Derandomized: the filters below leave about one problem in 5,600 on
# which the two still part, each a form in which the whole-matrix solver
# is itself sensitive to the last bits (a power step from a direction
# that the residual nearly annihilates), so a random draw would make the
# test flaky rather than stricter.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problem=_partial_problems())
def test_matches_the_whole_matrix_solver(problem):
    # The solver's rows, gathered misfit and vdot norms round differently
    # from whole-matrix steps, yet it decides as they do and its result
    # is theirs to within 1e-9 ||Ytilde||.
    obs, hint, max_sweeps = problem
    # Every entry moved by a relative 2^-50, up or down.
    signs = np.where(np.random.default_rng(0).random(obs.mask.shape) < 0.5, -1.0, 1.0)
    nudged = replace(obs, incomplete=obs.incomplete * (1.0 + 2.0**-50 * signs))
    with mock.patch.object(completion, "MAX_SWEEPS", max_sweeps), \
            mock.patch.object(oracles, "MAX_SWEEPS", max_sweeps):
        result = r1mc_complete(obs, rank_hint=hint)
        completed, rank, iterations, converged, trace, margin = oracles.r1mc_sweeps(obs, hint)
        again, *moved, _ = oracles.r1mc_sweeps(nudged, hint)
    tol = 1e-9 * np.linalg.norm(obs.incomplete)
    # That holds where the whole-matrix solver is itself defined to within
    # roundoff.  Each of its decisions must clear its threshold by more
    # than tol: a weight or a fit that stalls at a threshold is decided by
    # the last bits.  And a last-bit change of the data must leave its
    # decisions and move its result by less than tol: a factor started on
    # a roundoff-level singular vector or on one of two near-equal
    # singular values, a mask that leaves the completion free to drift,
    # or a multiplier that grows without converging each break that.
    assume(margin > tol and np.linalg.norm(again - completed) <= tol)
    assume(moved[:3] == [rank, iterations, converged])
    assume([row[3] for row in moved[3]] == [row[3] for row in trace])
    assert (result.iterations, result.rank, result.converged) == (iterations, rank, converged)
    assert [row[3] for row in result.trace] == [row[3] for row in trace]
    assert np.linalg.norm(result.completed - completed) <= tol
