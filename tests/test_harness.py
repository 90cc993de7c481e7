"""Tests of the Monte-Carlo harness: metrics, sweeps, reports, BER link."""

import dataclasses
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc import channel, harness
from ramc.channel import ChannelParams
from ramc.config import DEFAULT_ABLATION, ExperimentConfig
from ramc.errors import ConfigError, DegenerateSystemError, UndefinedMetricError
from ramc.frontend import HybridConfig
from ramc.harness import (
    NMSE_FLOOR_DB,
    MetricRecord,
    _dictionary,
    _draw_trial,
    ablation_report,
    ber_link,
    draw_ber_link,
    nmse,
    nmse_db,
    run_single_trial,
    run_sweep,
    simulate_trial,
    summarize_records,
    write_report,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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

    def _recovery(self, records):
        return summarize_records(records).recovery[0, 0]

    def test_all_recovered(self):
        assert self._recovery([self._rec(-120.0)] * 4) == 1.0

    def test_none_recovered(self):
        assert self._recovery([self._rec(0.0)] * 4) == 0.0

    def test_half(self):
        assert self._recovery([self._rec(-20.0), self._rec(0.0)]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            summarize_records([])


class TestBerLink:
    def test_matched_high_snr(self):
        rng = np.random.default_rng(410)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert ber_link(h, h, snr_db=30.0, draws=draw_ber_link(8, 5000, seed=1)) <= 1e-4

    def test_pure_noise_limit(self):
        rng = np.random.default_rng(411)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ber = ber_link(h, h, snr_db=-60.0, draws=draw_ber_link(8, 5000, seed=2))
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
        draws = draw_ber_link(8, 4000, seed=3)
        good = ber_link(h, h, snr_db=10.0, draws=draws)
        bad = ber_link(h, h_bad, snr_db=10.0, draws=draws)
        assert good < bad
        assert abs(bad - 0.5) <= 3 * math.sqrt(0.25 / 8000)

    def test_too_few_symbols(self):
        with pytest.raises(ConfigError):
            draw_ber_link(4, n_symbols=10)


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

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sharing_is_invisible(self, seed):
        # Every variant and SNR of a trial reuses the trial's draws; its
        # rows must be what it gets when swept alone or run on its own.
        cfg = ExperimentConfig(
            **SMALL, master_seed=seed, snr_grid_db=(5.0, 25.0), n_trials=1,
            time_steps=2, ber_symbols=1000,
        )
        together = self._timeless(run_sweep(cfg, DEFAULT_ABLATION))
        for variant in DEFAULT_ABLATION:
            rows = [r for r in together if r.variant == variant]
            assert rows == self._timeless(run_sweep(cfg, (variant,)))
            single = [
                r
                for snr_idx in range(len(cfg.snr_grid_db))
                for r in run_single_trial(cfg, variant, snr_idx=snr_idx)
            ]
            assert rows == self._timeless(single)

    def test_shared_arrays_read_only(self):
        cfg = ExperimentConfig(**SMALL, time_steps=2, ber_symbols=1000)
        steps = _draw_trial(cfg, 0, _dictionary(cfg))
        for step in steps:
            shared = [step.real.matrix, step.block.f, step.block.w, step.block.s,
                      step.y_clean, *step.ber]
            assert not any(array.flags.writeable for array in shared)
        with pytest.raises(ValueError):
            steps[0].y_clean[0, 0] = 0.0

    def test_failed_shared_draw_fails_its_step_everywhere(self, monkeypatch):
        real_pilot = harness.make_pilot_block
        calls = []

        def fail_second_step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ConfigError("injected failure at t=1")
            return real_pilot(*args, **kwargs)

        monkeypatch.setattr(harness, "make_pilot_block", fail_second_step)
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=1, time_steps=3)
        records = run_sweep(cfg, variants=("rank_aware", "coarse_only"))
        assert len(calls) == 3
        assert len(records) == 12
        for r in records:
            assert r.error == ("ConfigError: injected failure at t=1" if r.t == 1 else "")

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
        assert records[0].error == (
            "InfeasibleMaskError: 5 observations cannot cover 4 rows and 8 columns"
        )
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

    def test_records_carry_the_final_residual(self, monkeypatch):
        solve, solves = harness.r1mc_complete, []

        def spy(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(harness, "r1mc_complete", spy)
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0,), n_trials=1, time_steps=2)
        records = run_sweep(cfg, variants=("rank_aware", "coarse_only"))
        aware = [r.final_residual for r in records if r.variant == "rank_aware"]
        assert aware == [s.final_residual for s in solves] and len(aware) == 2
        assert all(r.final_residual is None for r in records if r.variant == "coarse_only")
        failed = dataclasses.replace(cfg, keep_fraction=0.14)
        assert all(r.final_residual is None for r in run_sweep(failed, variants=("rank_aware",)))

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
        assert ranks == [
            ("InfeasibleMaskError: 5 observations cannot cover 4 rows and 8 columns", 1),
            ("", 1),
        ]

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
        with pytest.raises(ConfigError):
            run_single_trial(cfg, snr_idx=99)

    def test_rank_hint_survives_failed_phase2(self, monkeypatch):
        # rank_aware hints each solve with the previous step's corrected
        # rank plus the headroom.  That rank is kept before Phase II runs,
        # so a step whose Phase II fails still hints the next step.
        hints = []
        phase2_calls = []
        real_complete = harness.r1mc_complete
        real_phase2 = harness.estimate_phase2

        def recording_complete(obs, rank_hint=None, opts=None):
            hints.append(rank_hint)
            return real_complete(obs, rank_hint=rank_hint, opts=opts)

        def fail_first_phase2(*args, **kwargs):
            phase2_calls.append(None)
            if len(phase2_calls) == 1:
                raise DegenerateSystemError("injected Phase-II failure")
            return real_phase2(*args, **kwargs)

        monkeypatch.setattr(harness, "r1mc_complete", recording_complete)
        monkeypatch.setattr(harness, "estimate_phase2", fail_first_phase2)
        cfg = ExperimentConfig(snr_grid_db=(25.0,), n_trials=1, time_steps=3, master_seed=5)
        records = run_single_trial(cfg, "rank_aware")
        assert hints == [None, 4, 4]
        assert [r.t for r in records if r.error] == [0]


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


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The traced benchmark wraps stage functions by name and passes
    # ``threads`` to run_sweep; a deletion that breaks either fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.trace_targets(harness, channel)
    assert targets
    for target in targets:
        assert callable(getattr(target.module, target.attr, None)), target.name
    assert "threads" in inspect.signature(harness.run_sweep).parameters
