"""Tests of the Monte-Carlo harness: metrics, sweeps, reports, BER link."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc import (
    ChannelParams,
    ExperimentConfig,
    HybridConfig,
    MetricRecord,
    NMSE_FLOOR_DB,
    UndefinedMetricError,
    ablation_report,
    ber_link,
    nmse,
    nmse_db,
    recovery_probability,
    run_single_trial,
    run_sweep,
    simulate_trial,
    summarize_records,
    write_report,
)

# Small geometry keeps per-trial solves around a millisecond.
SMALL = dict(
    channel=ChannelParams(n_bs=4, n_ms=4, n_clusters=2, rays_per_cluster=1),
    hybrid=HybridConfig(m_bs=4, m_ms=4, n_streams=2, pilot_length=8),
    keep_fraction=0.8,
)


class TestNmse:
    def test_perfect_estimate(self):
        h = np.eye(4, dtype=complex)
        assert nmse(h, h) == 0.0
        assert nmse_db(0.0) == NMSE_FLOOR_DB

    def test_zero_estimate(self):
        h = np.eye(4, dtype=complex)
        assert nmse(h, np.zeros_like(h)) == pytest.approx(1.0)

    def test_scaling_identity(self):
        rng = np.random.default_rng(400)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert nmse(h, 2 * h) == pytest.approx(1.0, abs=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nmse(np.zeros((3, 3)), np.eye(3))

    def test_db_conversion(self):
        assert nmse_db(0.01) == pytest.approx(-20.0)
        assert nmse_db(1.0) == pytest.approx(0.0)


class TestRecoveryProbability:
    def _rec(self, db):
        return MetricRecord(
            variant="x", snr_db=0.0, trial=0, t=0, nmse=10 ** (db / 10),
            nmse_db=db, recovered=db <= -10.0, ber=None, rank_true=1,
            rank_est=1, runtime_ms=0.0, error="",
        )

    def test_all_recovered(self):
        recs = [self._rec(-120.0)] * 4
        assert recovery_probability(recs, -10.0) == 1.0

    def test_none_recovered(self):
        recs = [self._rec(0.0)] * 4
        assert recovery_probability(recs, -10.0) == 0.0

    def test_half(self):
        recs = [self._rec(-20.0), self._rec(0.0)]
        assert recovery_probability(recs, -10.0) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            recovery_probability([])


class TestBerLink:
    def test_matched_high_snr(self):
        rng = np.random.default_rng(410)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert ber_link(h, h, snr_db=30.0, n_symbols=5000, seed=1) <= 1e-4

    def test_pure_noise_limit(self):
        rng = np.random.default_rng(411)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ber = ber_link(h, h, snr_db=-60.0, n_symbols=5000, seed=2)
        # 20000 bits of coin flips: 0.5 within 3 binomial sigmas.
        assert abs(ber - 0.5) <= 3 * math.sqrt(0.25 / 20000)

    def test_mismatched_worse(self):
        rng = np.random.default_rng(412)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u, s, vh = np.linalg.svd(g)
        h = u[:, :2] @ np.diag([5.0, 3.0]) @ vh[:2, :]
        # Beams aimed at an orthogonal subspace receive no signal at all,
        # so the mismatched link degenerates to coin flipping.
        h_bad = u[:, 2:4] @ np.diag([5.0, 3.0]) @ vh[2:4, :]
        good = ber_link(h, h, snr_db=10.0, n_symbols=4000, seed=3)
        bad = ber_link(h, h_bad, snr_db=10.0, n_symbols=4000, seed=3)
        assert good < bad
        assert abs(bad - 0.5) <= 3 * math.sqrt(0.25 / 8000)

    def test_too_few_symbols(self):
        with pytest.raises(Exception):
            ber_link(np.eye(4), np.eye(4), snr_db=10.0, n_symbols=10)


class TestRunSweep:
    def test_record_bookkeeping(self):
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(10.0,), n_trials=1, time_steps=3,
            estimator_variant="coarse_only",
        )
        records = run_sweep(cfg)
        assert len(records) == 3
        assert [r.t for r in records] == [0, 1, 2]
        assert all(r.variant == "coarse_only" for r in records)

    @staticmethod
    def _timeless(records):
        return [dataclasses.replace(r, runtime_ms=0.0) for r in records]

    def test_deterministic(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0,), n_trials=2)
        assert self._timeless(run_sweep(cfg)) == self._timeless(run_sweep(cfg))

    def test_thread_count_invariant(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 15.0), n_trials=2)
        one = self._timeless(run_sweep(cfg, threads=1))
        four = self._timeless(run_sweep(cfg, threads=4))
        assert one == four

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_worker_count_invariant_over_seeds(self, seed):
        cfg = ExperimentConfig(
            **SMALL, master_seed=seed, snr_grid_db=(15.0,), n_trials=1, time_steps=2
        )
        variants = ("rank_aware", "fixed_rank:2")
        one = self._timeless(run_sweep(cfg, variants=variants, threads=1))
        two = self._timeless(run_sweep(cfg, variants=variants, threads=2))
        assert one == two

    def test_canonical_ordering(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0, 5.0), n_trials=2)
        records = run_sweep(cfg, variants=("rank_aware", "coarse_only"), threads=4)
        keys = [(r.variant, r.snr_db, r.trial, r.t) for r in records]
        assert keys == sorted(keys)

    def test_noiseless_rank_aware_matches_true_rank_fix(self):
        # When the rank estimator finds the true rank, both variants run
        # the identical pipeline.  Full default geometry: the tiny SMALL
        # observation is too sparse for a well-posed completion.
        cfg = ExperimentConfig(
            snr_grid_db=(math.inf,), n_trials=2, keep_fraction=0.8,
        )
        records = run_sweep(cfg, variants=("rank_aware", "fixed_rank:2"))
        aware = [r for r in records if r.variant == "rank_aware"]
        fixed = [r for r in records if r.variant == "fixed_rank:2"]
        assert all(a.rank_est == 2 for a in aware)
        for a, f in zip(aware, fixed):
            assert abs(a.nmse_db - f.nmse_db) <= 1e-9

    def test_infeasible_mask_recorded_not_raised(self):
        cfg = ExperimentConfig(**dict(SMALL, keep_fraction=0.14),
                               snr_grid_db=(10.0,), n_trials=1)
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].error == "InfeasibleMaskError"
        assert math.isnan(records[0].nmse)
        assert not records[0].recovered

    def test_records_carry_the_phase1_solve(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0,), n_trials=1, time_steps=2)
        records = run_sweep(cfg, variants=("rank_aware", "coarse_only"))
        for r in records:
            if r.variant == "coarse_only":
                assert (r.iterations, r.converged) == (0, None)
            else:
                assert 1 <= r.iterations <= cfg.solver.max_iters
                assert isinstance(r.converged, bool)
        failed = dataclasses.replace(cfg, keep_fraction=0.14)
        for r in run_sweep(failed, variants=("rank_aware",)):
            assert r.error and (r.iterations, r.converged) == (0, None)

    def test_failed_record_reports_matrix_rank(self):
        # Three rays in one cluster with no angle spread share one path
        # direction, so the channel has rank 1 although it holds 3 rays.
        # Failed and successful steps must report the same rank_true.
        channel = ChannelParams(
            n_bs=4, n_ms=4, n_clusters=1, rays_per_cluster=3, angle_spread=0.0
        )
        ranks = []
        for keep in (0.14, 0.8):
            cfg = ExperimentConfig(
                **dict(SMALL, channel=channel, keep_fraction=keep),
                snr_grid_db=(10.0,), n_trials=1, estimator_variant="coarse_only",
            )
            (record,) = run_sweep(cfg)
            ranks.append((record.error, record.rank_true))
        assert ranks == [("InfeasibleMaskError", 1), ("", 1)]

    def test_paired_channels_across_variants(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(20.0,), n_trials=1)
        arts_a: dict = {}
        arts_b: dict = {}
        run_single_trial(cfg, "rank_aware", artifacts=arts_a)
        run_single_trial(cfg, "coarse_only", artifacts=arts_b)
        assert np.array_equal(arts_a["truth"][0], arts_b["truth"][0])
        assert np.array_equal(arts_a["mask"][0].observed, arts_b["mask"][0].observed)


class TestRunSingleTrial:
    def test_matches_sweep_row(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0, 20.0), n_trials=2)
        sweep = run_sweep(cfg, variants=("rank_aware",))
        single = run_single_trial(cfg, "rank_aware", snr_idx=1, trial=1)
        matching = [
            r for r in sweep if r.snr_db == 20.0 and r.trial == 1
        ]
        assert len(single) == 1
        a, b = single[0], matching[0]
        assert (a.nmse, a.rank_est, a.recovered) == (b.nmse, b.rank_est, b.recovered)

    def test_artifacts_populated(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(20.0,), n_trials=1, time_steps=2)
        artifacts: dict = {}
        records = run_single_trial(cfg, artifacts=artifacts)
        assert len(records) == 2
        assert len(artifacts["truth"]) == 2
        assert len(artifacts["estimate"]) == 2
        assert artifacts["estimate"][0].shape == (4, 4)

    def test_bad_snr_index(self):
        cfg = ExperimentConfig(**SMALL)
        with pytest.raises(Exception):
            run_single_trial(cfg, snr_idx=99)


def test_simulate_trial_shapes():
    cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0,), time_steps=2)
    track, blocks, observations = simulate_trial(cfg)
    assert len(track) == 2 and len(observations) == 2
    assert observations[0].incomplete.shape == (4, 8)
    assert track[0].matrix.shape == (4, 4)


class TestReports:
    def _records(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0, 20.0), n_trials=2)
        return run_sweep(cfg, variants=("rank_aware", "coarse_only"))

    def test_single_variant_rejected(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0,), n_trials=1)
        records = run_sweep(cfg)
        with pytest.raises(UndefinedMetricError):
            ablation_report(records)
        summarize_records(records)  # single-variant summary path stays open

    def test_identical_variants_zero_gap(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0, 20.0), n_trials=2)
        base = run_sweep(cfg, variants=("rank_aware",))
        twin = [dataclasses.replace(r, variant="rank_aware_twin") for r in base]
        report = ablation_report(base + twin)
        (gaps,) = report.gaps_db.values()
        assert np.all(gaps == 0.0)

    def test_gap_sign_on_schedule(self):
        # A rank change mid-run punishes the variant that cannot follow it.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(25.0,), n_trials=4, time_steps=4,
            rank_schedule=((2, 3),),
        )
        records = run_sweep(cfg, variants=("rank_aware", "rank_oblivious"))
        report = ablation_report(records)
        assert np.all(report.gaps_db[("rank_aware", "rank_oblivious")] < 0)

    def test_report_table_and_csv(self, tmp_path):
        report = ablation_report(self._records())
        text = str(report)
        assert "rank_aware" in text and "coarse_only" in text
        path = tmp_path / "report.csv"
        write_report(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variant,snr_db,median_nmse_db,recovery,rank_accuracy"
        assert len(lines) == 1 + 2 * 2

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            summarize_records([])
