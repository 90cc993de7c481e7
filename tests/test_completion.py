"""Tests for rank estimation, the rank tracker and the completion solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramc import (
    ColdStartError,
    ConfigError,
    DegenerateSystemError,
    ObservationSet,
    SamplingMask,
    SolverOptions,
    estimate_rank,
    persistence_tracker,
    predict_rank,
    project_mask,
    r1mc_complete,
)


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

class TestRankTracker:
    def test_cold_start(self):
        tracker = persistence_tracker(rank_cap=8)
        with pytest.raises(ColdStartError):
            predict_rank(tracker)

    def test_persistence_predicts_last(self):
        tracker = persistence_tracker(rank_cap=8)
        tracker.record(3)
        assert predict_rank(tracker) == 3
        tracker.record(5)
        assert predict_rank(tracker) == 5

    def test_relock_within_one_step(self):
        # A step change in the corrected rank is reflected by the very
        # next prediction.
        tracker = persistence_tracker(rank_cap=8)
        for _ in range(10):
            tracker.record(2)
        assert predict_rank(tracker) == 2
        tracker.record(4)
        assert predict_rank(tracker) == 4

    def test_clamped_to_cap(self):
        tracker = persistence_tracker(rank_cap=3)
        tracker.record(7)
        assert predict_rank(tracker) == 3

    def test_capacity_bound(self):
        tracker = persistence_tracker(rank_cap=8, capacity=4)
        for value in range(1, 9):
            tracker.record(value)
        assert list(tracker.history) == [5, 6, 7, 8]

    @given(
        cap=st.integers(min_value=1, max_value=16),
        history=st.lists(st.integers(min_value=-4, max_value=32), min_size=1, max_size=80),
    )
    def test_predicts_clipped_last_rank(self, cap, history):
        tracker = persistence_tracker(rank_cap=cap)
        for value in history:
            tracker.record(value)
        assert predict_rank(tracker) == int(np.clip(history[-1], 1, cap))


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
            opts = SolverOptions(mu=mu, refine_without_l1=False, max_iters=150)
            result = r1mc_complete(obs, rank_hint=5, opts=opts)
            supports.append(result.rank)
        assert all(a >= b for a, b in zip(supports, supports[1:]))

    def test_trace_rows(self):
        rng = np.random.default_rng(147)
        m = _low_rank(rng, 12, 12, 2)
        obs = _masked_observation(rng, m, keep=0.7)
        result = r1mc_complete(obs, rank_hint=2)
        # One row per sweep plus the shrink-free refit row.
        assert len(result.trace) == result.iterations + 1
        assert [row[0] for row in result.trace] == list(range(1, result.iterations + 2))
        assert all(len(row) == 4 for row in result.trace)
