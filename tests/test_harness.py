"""Tests of the Monte-Carlo harness: metrics, sweeps, reports, BER link."""

import dataclasses
import importlib.util
import inspect
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramc import channel, completion, harness, recovery
from ramc.channel import ChannelParams
from ramc.config import ExperimentConfig
from ramc.errors import (
    ConfigError,
    DegenerateSystemError,
    MatrixSizeError,
    ShapeError,
    UndefinedMetricError,
)
from ramc.frontend import HybridConfig
from ramc.harness import (
    DEFAULT_ABLATION,
    NMSE_FLOOR_DB,
    MetricRecord,
    _dictionary,
    _draw_trial,
    ber_link,
    nmse,
    nmse_db,
    run_single_trial,
    run_sweep,
    simulate_trial,
    summarize_records,
    write_report,
)

from oracles import (
    ber_link_enumerated,
    ber_link_errors_drawn,
    build_dictionary,
    measurement_matrix,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Spellings of fixed_rank:2 that are not its one name: a leading zero, a
# non-ASCII digit and a trailing newline.
_OTHER_SPELLINGS = ("fixed_rank:02", "fixed_rank:\uff12", "fixed_rank:2\n")

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


def _sv(h):
    """Singular values of the true channel, as a step holds them."""
    return np.linalg.svd(h, compute_uv=False)


def _ber(h, h_est, snr_db, n_streams=2):
    """The BER of one estimate: ``ber_link`` on a stack of one."""
    (ber,) = ber_link(h, _sv(h), np.asarray(h_est)[None], [snr_db], n_streams)
    return ber


def _poisson_tails(count, mean):
    """P(X <= count) and P(X >= count) for X ~ Poisson(mean)."""
    terms = [math.exp(-mean)]
    for k in range(1, count + 1):
        terms.append(terms[-1] * mean / k)
    below = math.fsum(terms)
    return below, 1.0 - below + terms[-1]


class TestBerLink:
    def test_matched_high_snr(self):
        rng = np.random.default_rng(410)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert _ber(h, h, 30.0) <= 1e-4

    def test_pure_noise_limit(self):
        rng = np.random.default_rng(411)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        # At -60 dB each part's margin is below 3e-3 of its noise std, so
        # Q of it lies within 1.2e-3 below 1/2.
        assert 0.5 - 2e-3 < _ber(h, h, -60.0) < 0.5

    def test_mismatched_worse(self):
        rng = np.random.default_rng(412)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u, s, vh = np.linalg.svd(g)
        h = u[:, :2] @ np.diag([5.0, 3.0]) @ vh[:2, :]
        # Beams aimed at an orthogonal subspace receive no signal at all,
        # so the mismatched link degenerates to coin flipping.
        h_bad = u[:, 2:4] @ np.diag([5.0, 3.0]) @ vh[2:4, :]
        good = _ber(h, h, 10.0)
        bad = _ber(h, h_bad, 10.0)
        assert good < bad
        assert abs(bad - 0.5) <= 1e-9

    def test_roundoff_link_gain_counts_as_no_link(self):
        # The estimate's second beam is orthogonal to a rank-one channel,
        # so that stream's link gain is roundoff; last-bit changes of the
        # estimate must not move the BER through its phase.  The exact BER
        # is continuous in the estimate, so they agree to 1e-9.  With no
        # noise the second stream's parts are roundoff, decided as 0: the
        # first stream is error-free and the second a coin flip.
        rng = np.random.default_rng(413)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u, _, vh = np.linalg.svd(g)
        h = 5.0 * np.outer(u[:, 0], vh[0])
        h_est = h + 2.0 * np.outer(u[:, 1], vh[1])
        perturbed = [h_est * (1.0 + k * 2.0**-52) for k in range(20)]
        bers = [_ber(h, est, 10.0) for est in perturbed]
        assert max(bers) - min(bers) <= 1e-9 * min(bers)
        assert [_ber(h, est, math.inf) for est in perturbed] == [0.25] * 20

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_link_gain_is_a_coin_flip(self, n):
        # A diagonal rank-one channel and a rank-two estimate: the second
        # stream's link is exactly zero, so its parts are coin flips, with
        # no division by its zero gain.  At +inf dB each zero margin is
        # decided plus, wrong for the half of the parts sent minus.
        h = np.diag([5.0, 0.0, 0.0][:n]).astype(complex)
        h_est = np.diag([5.0, 2.0, 0.0][:n]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ber(h, h_est, math.inf) == 0.25
            two, one = _ber(h, h_est, 10.0), _ber(h, h_est, 10.0, n_streams=1)
        assert 0.0 < one < 0.5 and two == pytest.approx((one + 0.5) / 2, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
        n_streams=st.integers(1, 2),
    )
    def test_noiseless_matched_link_is_error_free(self, shape, scale, seed, n_streams):
        # With no noise, beamforming on the true channel decodes every bit;
        # the infinite SNR must not reach the arithmetic as inf * 0.
        rng = np.random.default_rng(seed)
        h = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        s = np.linalg.svd(h, compute_uv=False)
        assume(s[-1] > 1e-6 * s[0])  # full rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ber(h, h, math.inf, n_streams) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
        seed=st.integers(0, 2**32 - 1),
        n_streams=st.integers(1, 3),
        snrs=st.lists(
            st.sampled_from([-10.0, 0.0, 10.0, 30.0, math.inf]), min_size=1, max_size=8
        ),
        rank_one=st.booleans(),
        kinds=st.lists(st.sampled_from(["perturbed", "second_beam"]), min_size=8, max_size=8),
        zero=st.booleans(),
    )
    def test_matches_enumeration(self, shape, seed, n_streams, snrs, rank_one, kinds, zero):
        # The vectorised BER equals the one that visits each sign pattern,
        # stream and part in turn, also at +inf dB and when a stream's
        # link gain is roundoff (a second beam on a rank-one channel).
        # Row k of a stacked call is the link of estimate k at snrs[k]; a
        # zero estimate in the middle fails its row alone.  Terms below
        # 1e-300 are subnormal and carry no relative precision.
        assume(min(shape) >= n_streams)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, _, vh = np.linalg.svd(g)
        h = 5.0 * np.outer(u[:, 0], vh[0]) if rank_one else g
        estimates = []
        for kind in kinds[: len(snrs)]:
            if kind == "perturbed":
                noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                estimates.append(h + 0.3 * noise)
            else:
                estimates.append(h + rng.uniform(0.5, 3.0) * np.outer(u[:, 1], vh[1]))
        middle = len(snrs) // 2
        if zero:
            estimates[middle] = np.zeros(shape)
        bers = ber_link(h, _sv(h), np.stack(estimates), snrs, n_streams)
        assert len(bers) == len(snrs)
        for k, (est, snr_db, ber) in enumerate(zip(estimates, snrs, bers)):
            if zero and k == middle:
                assert isinstance(ber, DegenerateSystemError)
                assert str(ber) == "cannot beamform on a zero channel estimate"
            else:
                expected = ber_link_enumerated(h, est, snr_db, n_streams)
                assert math.isclose(ber, expected, rel_tol=1e-12, abs_tol=1e-300)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_a_monte_carlo_draw(self, seed):
        # 10^6 drawn symbols per stream count sign errors within 4
        # binomial standard errors of the exact BER times the bit count.
        # Where fewer than 10 errors are expected that normal limit is
        # too narrow (one error where 0.1 are expected reads z = 3), so the
        # count must then lie where a Poisson tail holds 3e-5 or more, the
        # one-sided mass beyond 4 standard errors.
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h_est = h + 0.1 * np.linalg.norm(h) / np.linalg.norm(noise) * noise
        snrs = [0.0, 8.0, 12.0]
        bers = ber_link(h, _sv(h), np.stack([h_est] * len(snrs)), snrs, 2)
        n_bits = 4 * 10**6
        for k, (snr_db, ber) in enumerate(zip(snrs, bers)):
            errors = ber_link_errors_drawn(h, h_est, snr_db, 2, 10**6, seed=(seed, k))
            mean = n_bits * ber
            if mean >= 10.0:
                assert abs(errors - mean) <= 4.0 * math.sqrt(mean * (1.0 - ber)), snr_db
            else:
                assert min(_poisson_tails(errors, mean)) >= 3e-5, (snr_db, errors, mean)

    @pytest.mark.parametrize(
        "snr_db",
        [
            pytest.param(math.nan, id="nan"),
            pytest.param(-math.inf, id="minus_inf"),
            pytest.param(-4000.0, id="finite_below_300dB"),
            pytest.param(300.5, id="finite_above_300dB"),
        ],
    )
    def test_rejects_an_snr_the_config_rejects(self, snr_db):
        # Before, NaN decided bits on NaN noise (a BER near 0.5) and -inf
        # or -4000 dB raised ZeroDivisionError.  The whole call fails.
        h = np.eye(8, dtype=complex)
        with pytest.raises(ConfigError, match="ber_link snr_db"):
            ber_link(h, _sv(h), np.stack([h, h]), [10.0, snr_db], 2)
        with pytest.raises(ConfigError, match="snr_grid_db"):
            ExperimentConfig(snr_grid_db=(snr_db,))

    def test_one_snr_per_estimate(self):
        h = np.eye(4, dtype=complex)
        with pytest.raises(ShapeError):
            ber_link(h, _sv(h), np.stack([h, h]), [10.0], 2)

    def test_stream_count_bounded(self):
        # 4^s sign patterns: 4 streams is the most the exact BER takes.
        h = np.eye(8, dtype=complex)
        assert ber_link(h, _sv(h), h[None], [math.inf], 4) == [0.0]
        with pytest.raises(ConfigError, match="at most 4 streams, got 5"):
            ber_link(h, _sv(h), h[None], [10.0], 5)
        with pytest.raises(ConfigError, match="exceed channel dimensions"):
            ber_link(h[:2], _sv(h[:2]), h[None, :2], [10.0], 3)


class TestRunSweep:
    def test_record_bookkeeping(self):
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(10.0,), n_trials=1, time_steps=3,
        )
        records = run_sweep(cfg, ("coarse_only",))
        assert len(records) == 3
        assert [r.t for r in records] == [0, 1, 2]
        assert all(r.variant == "coarse_only" for r in records)

    @staticmethod
    def _timeless(records):
        return [dataclasses.replace(r, runtime_ms=0.0) for r in records]

    def test_deterministic(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0,), n_trials=2)
        variants = ("rank_aware",)
        assert self._timeless(run_sweep(cfg, variants)) == self._timeless(run_sweep(cfg, variants))

    def test_thread_count_invariant(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 15.0), n_trials=2)
        one = self._timeless(run_sweep(cfg, ("rank_aware",), threads=1))
        four = self._timeless(run_sweep(cfg, ("rank_aware",), threads=4))
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

    def test_shared_arrays_read_only(self, monkeypatch):
        cfg = ExperimentConfig(**SMALL, time_steps=2, ber_symbols=1000)
        dictionary = _dictionary(cfg)
        steps = _draw_trial(cfg, 0, dictionary)
        for step in steps:
            block = step.block
            shared = [step.real.matrix, step.s_true, block.f, block.w, block.s,
                      block.effective_precoder, block.combiner_pinv, block.precoder_pinv,
                      step.y_clean, step.noise, step.mask]
            assert not any(array.flags.writeable for array in shared)
        with pytest.raises(ValueError):
            steps[0].y_clean[0, 0] = 0.0
        # The observation both baselines get at a (trial, t, SNR) is one
        # read-only object, and so is its one coarse estimate.
        real_coarse = harness.coarse_channel
        seen = []

        def spy_coarse(obs, block):
            seen.append(obs)
            estimates.append(real_coarse(obs, block))
            return estimates[-1]

        estimates = []
        monkeypatch.setattr(harness, "coarse_channel", spy_coarse)
        cfg = dataclasses.replace(cfg, snr_grid_db=(5.0, 25.0), n_trials=2)
        run_sweep(cfg, ("coarse_only", "somp_baseline"))
        assert len(seen) == 8 and len({id(obs) for obs in seen}) == 8
        assert not any(obs.incomplete.flags.writeable for obs in seen)
        assert not any(h.flags.writeable for h in estimates)
        # A Phase-I completion may be shared by several rows, so it is
        # read-only too.
        real_complete = harness.r1mc_complete
        solves = []

        def spy_complete(*args, **kwargs):
            solves.append(real_complete(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(harness, "r1mc_complete", spy_complete)
        run_sweep(cfg, ("rank_aware", "fixed_rank:2", "rank_oblivious"))
        # 16 (variant, SNR, trial, t) solves, less the one that fixed_rank:2
        # shares with rank_aware's first step at 25 dB in trial 0.
        assert len(solves) == 15
        assert not any(result.completed.flags.writeable for result in solves)

    def test_step_work_done_once(self, monkeypatch):
        # Per (trial, t): the two pseudo-inverses of the coarse estimate,
        # the true channel's SVD and one BER link over every (variant,
        # SNR).  Per (trial, t, SNR), whatever the number of variants: the
        # observation, the energy-rule rank of its zero fill and the
        # coarse estimate.  Per trial: one stacked SOMP pursuit, if a
        # variant runs it.  Per (trial, t): one stacked Phase II over every
        # (variant, SNR) that runs Phase I, if any does.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(5.0, 15.0, 25.0), n_trials=2, time_steps=2,
            ber_symbols=1000,
        )
        dictionary = _dictionary(cfg)
        steps = [step for trial in range(2) for step in _draw_trial(cfg, trial, dictionary)]
        truths = [step.real.matrix for step in steps]
        # The rank is read off the one SVD by matrix_rank's own rule.
        assert [step.rank_true for step in steps] == [np.linalg.matrix_rank(h) for h in truths]
        counts = {}

        def counting(module, name, count_if=lambda *args: True):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                if count_if(*args):
                    counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        def is_truth(a, *_):
            return any(a.shape == h.shape and np.array_equal(a, h) for h in truths)

        counting(np.linalg, "pinv")
        counting(np.linalg, "svd", is_truth)
        counting(harness, "observe")
        counting(harness, "estimate_rank")
        counting(harness, "coarse_channel")
        counting(harness, "ber_link")
        counting(harness, "somp_baseline")
        counting(harness, "estimate_phase2")
        once = {
            "pinv": 2 * 4, "svd": 4, "observe": 12, "estimate_rank": 12,
            "coarse_channel": 12, "ber_link": 4,
        }
        # Without a baseline no coarse estimate is taken; rank_aware and
        # rank_oblivious take the energy-rule rank of each completion and,
        # for their first hint, of each first step's zero fill (2 trials x
        # 3 SNRs).
        phase1 = {"pinv": 2 * 4, "svd": 4, "observe": 12, "estimate_rank": 12 + 6,
                  "ber_link": 4, "estimate_phase2": 4}
        for variants, expected in (
            (("coarse_only",), once),
            (("coarse_only", "somp_baseline"), {**once, "somp_baseline": 2}),
            (("rank_aware", "fixed_rank:2"), phase1),
            (("fixed_rank:2", "coarse_only", "somp_baseline", "rank_oblivious"),
             {**once, "estimate_rank": 24, "somp_baseline": 2, "estimate_phase2": 4}),
        ):
            counts.clear()
            records = run_sweep(cfg, variants)
            assert len(records) == 12 * len(variants) and not any(r.error for r in records)
            assert all(r.ber is not None for r in records)
            assert counts == expected
        # rank_oblivious follows rank_aware's hints, so per (trial, t, SNR)
        # the two share one Phase-I solve and its one corrected rank.
        counting(harness, "r1mc_complete")
        counts.clear()
        records = run_sweep(cfg, ("rank_aware", "rank_oblivious"))
        assert len(records) == 24 and not any(r.error for r in records)
        assert counts == {**phase1, "r1mc_complete": 12}
        for variant, somp in (("coarse_only", 0), ("somp_baseline", 1)):
            counts.clear()
            run_single_trial(cfg, variant, snr_idx=1)
            assert counts.get("somp_baseline", 0) == somp

    @pytest.mark.parametrize(
        "grid_oversampling,too_large",
        [
            pytest.param(2, ("dictionary",), id="dictionary"),
            pytest.param(1, ("measurement",), id="measurement"),
            pytest.param(2, ("measurement", "dictionary"), id="both"),
        ],
    )
    def test_failed_composition_fails_phase2_records_alone(
        self, monkeypatch, grid_oversampling, too_large
    ):
        # estimate_phase2 builds two Kronecker products: the composed atoms,
        # one row per measurement, and their Gram matrix, one row per
        # dictionary atom.  One over the size cap fails only the records
        # that run Phase II, with the error estimate_phase2 raises on its
        # own (the atoms' when both are too large); the coarse_only and
        # somp_baseline records do not change.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2,
            grid_oversampling=grid_oversampling,
        )
        variants = ("coarse_only", "fixed_rank:2", "rank_aware", "somp_baseline")
        unpatched = self._timeless(run_sweep(cfg, variants))
        dictionary = _dictionary(cfg)
        block = _draw_trial(cfg, 0, dictionary)[0].block
        composed = measurement_matrix(block) @ build_dictionary(dictionary)
        rows, cols = composed.shape
        sizes = {"measurement": rows * cols, "dictionary": cols * cols}
        cap = min(sizes[name] for name in too_large) - 1
        assert all(size > cap for name, size in sizes.items() if name in too_large)
        assert all(size <= cap for name, size in sizes.items() if name not in too_large)
        monkeypatch.setattr(recovery, "MAX_KRON_ELEMENTS", cap)
        raised = sizes[too_large[0]]
        with pytest.raises(MatrixSizeError, match=f"would hold {raised} entries") as direct:
            recovery.estimate_phase2(np.zeros((1, 4, 8)), block, dictionary, [2])
        records = self._timeless(run_sweep(cfg, variants))
        assert len(records) == len(unpatched) == 32
        for new, old in zip(records, unpatched):
            if new.variant in ("coarse_only", "somp_baseline"):
                assert new == old
            else:
                assert new.error == f"MatrixSizeError: {direct.value}"

    def test_zero_estimate_fails_its_own_record(self, monkeypatch):
        # The BER of a step is one call over all its records' estimates.
        # A zero estimate (fixed_rank:2 at 25 dB, trial 0, t=0: the second
        # slot of the first Phase II of a one-thread sweep) fails that
        # record alone, with every field as any failed record has it; the
        # other records of its step keep their BER.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2, ber_symbols=1000
        )
        variants = ("coarse_only", "fixed_rank:2")
        unpatched = self._timeless(run_sweep(cfg, variants))
        real_phase2 = harness.estimate_phase2
        calls = []

        def zero_second_slot(*args, **kwargs):
            estimates = real_phase2(*args, **kwargs)
            calls.append(len(estimates))
            if len(calls) == 1:
                est = estimates[1]
                estimates[1] = dataclasses.replace(est, gains=np.zeros_like(est.gains))
            return estimates

        monkeypatch.setattr(harness, "estimate_phase2", zero_second_slot)
        records = self._timeless(run_sweep(cfg, variants))
        assert calls == [2, 2, 2, 2] and len(records) == len(unpatched) == 16
        for new, old in zip(records, unpatched):
            if (new.variant, new.snr_db, new.trial, new.t) == ("fixed_rank:2", 25.0, 0, 0):
                assert new == dataclasses.replace(
                    old, nmse=new.nmse, nmse_db=new.nmse_db, recovered=False, ber=None,
                    rank_est=0, iterations=0, converged=None, final_residual=None,
                    error="DegenerateSystemError: cannot beamform on a zero channel estimate",
                )
                assert math.isnan(new.nmse) and math.isnan(new.nmse_db)
            else:
                assert new == old and new.ber is not None

    def test_stacked_phase2_slots_as_alone(self, monkeypatch):
        # Each step's one Phase-II call gives every slot, bit for bit, the
        # support and gains of that slot's completion pursued alone, and
        # each record's estimate is its slot's channel.
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2)
        real_phase2 = harness.estimate_phase2
        calls = []

        def recording(completed, block, dictionary, ranks):
            estimates = real_phase2(completed, block, dictionary, ranks)
            calls.append((completed, block, dictionary, ranks, estimates))
            return estimates

        monkeypatch.setattr(harness, "estimate_phase2", recording)
        variants = ("rank_aware", "fixed_rank:2", "rank_oblivious", "coarse_only")
        records = run_sweep(cfg, variants)
        assert not any(r.error for r in records)
        assert [len(call[3]) for call in calls] == [6] * 4
        for completed, block, dictionary, ranks, estimates in calls:
            assert [rank is None for rank in ranks] == [False] * 4 + [True] * 2
            for target, rank, est in zip(completed, ranks, estimates):
                (alone,) = real_phase2(target[None], block, dictionary, [rank])
                assert est.support == alone.support
                assert est.gains.tobytes() == alone.gains.tobytes()

    def test_degenerate_phase2_slot_fails_its_own_record(self, monkeypatch):
        # A slot whose Cholesky pivot is at roundoff level holds the
        # pursuit's error: here the third slot of trial 0's first step,
        # which is rank_aware at 5 dB.  That record alone fails; every
        # other one, in the same stacked call too, is as it was.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2, ber_symbols=1000
        )
        variants = ("coarse_only", "fixed_rank:2", "rank_aware")
        unpatched = self._timeless(run_sweep(cfg, variants))
        real_phase2 = harness.estimate_phase2
        failure = DegenerateSystemError("selected columns [3, 1] are numerically dependent")
        calls = []

        def fail_third_slot(*args):
            estimates = real_phase2(*args)
            calls.append(len(estimates))
            if len(calls) == 1:
                estimates[2] = failure
            return estimates

        monkeypatch.setattr(harness, "estimate_phase2", fail_third_slot)
        records = self._timeless(run_sweep(cfg, variants))
        assert calls == [4] * 4 and len(records) == len(unpatched) == 24
        for new, old in zip(records, unpatched):
            if (new.variant, new.snr_db, new.trial, new.t) == ("rank_aware", 5.0, 0, 0):
                assert new == dataclasses.replace(
                    old, nmse=new.nmse, nmse_db=new.nmse_db, recovered=False, ber=None,
                    rank_est=0, iterations=0, converged=None, final_residual=None,
                    error=f"DegenerateSystemError: {failure}",
                )
                assert math.isnan(new.nmse) and math.isnan(new.nmse_db)
            else:
                assert new == old

    def test_failed_somp_target_fails_its_own_record(self, monkeypatch):
        # One stacked SOMP pursuit serves every (step, SNR) of a trial.  A
        # target that fails in it (its slot holds the error, as a
        # degenerate pivot leaves it) fails that record alone: here the
        # first slot of trial 0, which is t=0 at the first SNR.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2, ber_symbols=1000
        )
        variants = ("coarse_only", "somp_baseline")
        unpatched = self._timeless(run_sweep(cfg, variants))
        real_somp = harness.somp_baseline
        failure = DegenerateSystemError("selected columns [1, 0] are numerically dependent")
        calls = []

        def fail_first_slot(targets, dictionary, caps):
            estimates = real_somp(targets, dictionary, caps)
            calls.append(len(estimates))
            if len(calls) == 1:
                estimates[0] = failure
            return estimates

        monkeypatch.setattr(harness, "somp_baseline", fail_first_slot)
        records = self._timeless(run_sweep(cfg, variants))
        assert calls == [4, 4] and len(records) == len(unpatched) == 16
        for new, old in zip(records, unpatched):
            if (new.variant, new.snr_db, new.trial, new.t) == ("somp_baseline", 5.0, 0, 0):
                assert new == dataclasses.replace(
                    old, nmse=new.nmse, nmse_db=new.nmse_db, recovered=False, ber=None,
                    rank_est=0, error=f"DegenerateSystemError: {failure}",
                )
                assert math.isnan(new.nmse) and math.isnan(new.nmse_db)
            else:
                assert new == old

    def test_noise_and_mask_drawn_once_per_step(self, monkeypatch):
        # Each (variant, SNR) only scales and masks its step's shared
        # draws: the mask is drawn once per (trial, t), before any record
        # is evaluated, and no generator is seeded inside _run_trial.
        real_subsample, real_run_trial = harness.subsample, harness._run_trial
        real_rng = np.random.default_rng
        running, masks, seeded_in_trial = [], [], []

        def spy_subsample(*args, **kwargs):
            masks.append((kwargs["seed"].entropy[2:], bool(running)))
            return real_subsample(*args, **kwargs)

        def spy_rng(*args, **kwargs):
            if running:
                seeded_in_trial.append(args)
            return real_rng(*args, **kwargs)

        def spy_run_trial(*args, **kwargs):
            running.append(None)
            try:
                return real_run_trial(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(harness, "subsample", spy_subsample)
        monkeypatch.setattr(harness, "_run_trial", spy_run_trial)
        monkeypatch.setattr(np.random, "default_rng", spy_rng)
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2)
        records = run_sweep(cfg, variants=("rank_aware", "coarse_only"))
        assert len(records) == 16 and not any(r.error for r in records)
        assert masks == [((0, 0), False), ((0, 1), False), ((1, 0), False), ((1, 1), False)]
        assert seeded_in_trial == []

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

    def test_linalg_error_fails_its_solve_alone(self, monkeypatch):
        # A LAPACK failure inside one Phase-I solve (fixed_rank:2 at 25 dB,
        # trial 0, t=0: the third solve of a one-thread sweep) fails that
        # record with the numpy error and leaves every other one as it was.
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2)
        variants = ("coarse_only", "fixed_rank:2", "rank_aware")
        unpatched = self._timeless(run_sweep(cfg, variants))
        real_complete = harness.r1mc_complete
        calls = []

        def diverge_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_complete(*args, **kwargs)

        monkeypatch.setattr(harness, "r1mc_complete", diverge_third)
        records = self._timeless(run_sweep(cfg, variants))
        assert len(records) == len(unpatched) == 24
        for new, old in zip(records, unpatched):
            if (new.variant, new.snr_db, new.trial, new.t) == ("fixed_rank:2", 25.0, 0, 0):
                assert new.error == "LinAlgError: SVD did not converge"
                assert math.isnan(new.nmse) and new.iterations == 0 and new.converged is None
            else:
                assert new == old and not new.error

    def test_repeated_variant_rejected(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(harness, "_draw_trial", no_trial)
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0,), n_trials=1)
        with pytest.raises(ConfigError, match="repeat"):
            run_sweep(cfg, variants=("rank_aware", "coarse_only", "rank_aware"))
        # No variant at all, or a bare string, which would otherwise be
        # read as one variant per character.
        for variants in ([], (), "rank_aware"):
            with pytest.raises(ConfigError, match="one or more names, got"):
                run_sweep(cfg, variants)
        # Other spellings of fixed_rank:2 would pass the repeat check and
        # run one estimator twice under two names.
        for name in _OTHER_SPELLINGS:
            with pytest.raises(ConfigError, match="unknown estimator variant"):
                run_sweep(cfg, ("fixed_rank:2", name))

    def test_first_hint_is_the_zero_fill_rank(self, monkeypatch):
        # rank_aware hints its first step's solve with the energy-rule rank
        # of that step's zero fill, the rank that the baselines report, and
        # that rank is taken once per (trial, t, SNR) for all five variants.
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2)
        real_observe, real_rank, real_complete = (
            harness.observe, harness.estimate_rank, harness.r1mc_complete
        )
        observations, ranked, solves = [], [], []

        def spy_observe(*args):
            observations.append(real_observe(*args))
            return observations[-1]

        def spy_rank(m):
            ranked.append(m)
            return real_rank(m)

        def spy_complete(obs, rank_hint):
            solves.append((obs, rank_hint))
            return real_complete(obs, rank_hint)

        monkeypatch.setattr(harness, "observe", spy_observe)
        monkeypatch.setattr(harness, "estimate_rank", spy_rank)
        monkeypatch.setattr(harness, "r1mc_complete", spy_complete)
        records = run_sweep(cfg, DEFAULT_ABLATION)
        assert not any(r.error for r in records)
        # Per trial, the observations come SNR by SNR and step by step.
        assert len(observations) == 2 * 2 * 2
        assert [sum(m is obs.incomplete for m in ranked) for obs in observations] == [1] * 8
        firsts = [obs for i, obs in enumerate(observations) if i % 2 == 0]
        for obs in firsts:
            # rank_aware comes first in DEFAULT_ABLATION, so its solve is
            # the first on each first-step observation.
            hints = [hint for seen, hint in solves if seen is obs]
            assert hints[0] == completion.estimate_rank(obs.incomplete)
        # At 25 dB in trial 0 that rank is 2, so fixed_rank:2 takes the
        # same solve: 15 solves instead of 16, with rows as when swept alone.
        assert [hint for seen, hint in solves if seen is firsts[1]] == [2]
        assert len(solves) == 15
        fixed = [r for r in self._timeless(records) if r.variant == "fixed_rank:2"]
        assert fixed == self._timeless(run_sweep(cfg, ("fixed_rank:2",)))

    def test_cluster_birth_sweeps_without_failure(self):
        # A schedule that grows 2 clusters to 3 draws the new cluster with
        # the same ray count as the others.
        cfg = ExperimentConfig(
            channel=ChannelParams(n_clusters=2, rays_per_cluster=2),
            snr_grid_db=(15.0,), n_trials=2, time_steps=3, rank_schedule=((1, 3),),
        )
        track, _ = simulate_trial(cfg)
        assert [[len(c.rays) for c in real.clusters] for real in track] == [
            [2, 2], [2, 2, 2], [2, 2, 2]
        ]
        records = run_sweep(cfg, variants=DEFAULT_ABLATION)
        assert len(records) == 5 * 2 * 3
        assert [r.error for r in records if r.error] == []

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
        records = run_sweep(cfg, ("rank_aware",))
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
                assert 1 <= r.iterations <= completion.MAX_SWEEPS
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
                snr_grid_db=(10.0,), n_trials=1,
            )
            (record,) = run_sweep(cfg, ("coarse_only",))
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


class TestStacked:
    # Each row is "ready", "input" (its inputs raise) or "slot" (its slot
    # of the call holds an error); ``whole`` is an error the call raises.
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(st.sampled_from(["ready", "input", "slot"]), max_size=8),
        input_error=st.sampled_from([ShapeError, np.linalg.LinAlgError]),
        whole=st.sampled_from([None, MatrixSizeError("whole"), np.linalg.LinAlgError("whole")]),
    )
    def test_each_row_gets_its_own_slot_or_error(self, states, input_error, whole):
        rows = [harness._Row(dict(index=i), seen=None, h=np.ones(1), stage="phase2")
                for i in range(len(states))]
        calls = []

        def inputs(row):
            i = row.fields["index"]
            if states[i] == "input":
                raise input_error(f"input {i}")
            return i, f"x{i}"

        def call(indices, labels):
            calls.append((indices, labels))
            if whole is not None:
                raise whole
            return [DegenerateSystemError(f"slot {i}") if states[i] == "slot" else f"result {i}"
                    for i in indices]

        harness._stacked(rows, inputs, call, lambda row, got: row.fields.update(result=got))
        ready = [i for i, state in enumerate(states) if state != "input"]
        assert calls == ([(tuple(ready), tuple(f"x{i}" for i in ready))] if ready else [])
        for i, (state, row) in enumerate(zip(states, rows)):
            if state == "input":
                error = f"{input_error.__name__}: input {i}"
            elif whole is not None:
                error = f"{type(whole).__name__}: whole"
            elif state == "slot":
                error = f"DegenerateSystemError: slot {i}"
            else:
                assert row.fields == {"index": i, "result": f"result {i}"}
                assert row.h is not None and row.stage == "phase2"
                continue
            assert math.isnan(row.fields.pop("nmse")) and math.isnan(row.fields.pop("nmse_db"))
            assert row.fields == dict(index=i, error=error, recovered=False, ber=None,
                                      rank_est=0, iterations=0, converged=None,
                                      final_residual=None)
            assert (row.h, row.sparse, row.solve, row.stage) == (None, None, None, None)


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
        records = run_single_trial(cfg, "rank_aware", artifacts=artifacts)
        assert len(records) == 2
        assert len(artifacts["truth"]) == 2
        assert len(artifacts["estimate"]) == 2
        assert artifacts["estimate"][0].shape == (4, 4)

    def test_unknown_variant_rejected_before_any_draw(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(harness, "_draw_trial", no_trial)
        cfg = ExperimentConfig(**SMALL, time_steps=3)
        for variant in ("bogus", "fixed_rank:0", *_OTHER_SPELLINGS):
            with pytest.raises(ConfigError, match="unknown estimator variant"):
                run_single_trial(cfg, variant)

    def test_rank_oblivious_shares_rank_aware_solves(self):
        # rank_oblivious differs from rank_aware only in Phase II's cap:
        # it takes the same hints, so its solves and ranks are the same.
        cfg = ExperimentConfig(snr_grid_db=(15.0,), n_trials=1, time_steps=3, master_seed=2)
        arts = {"rank_aware": {}, "rank_oblivious": {}}
        records = {v: run_single_trial(cfg, v, artifacts=a) for v, a in arts.items()}
        aware, oblivious = records["rank_aware"], records["rank_oblivious"]
        assert arts["rank_aware"]["trace"] == arts["rank_oblivious"]["trace"]
        assert len(arts["rank_aware"]["trace"]) == 3 and all(arts["rank_aware"]["trace"])

        def solve_fields(r):
            return r.iterations, r.converged, r.final_residual, r.rank_est

        assert [solve_fields(r) for r in aware] == [solve_fields(r) for r in oblivious]
        assert not any(r.error for r in aware + oblivious)

    def test_bad_snr_index(self):
        cfg = ExperimentConfig(**SMALL)
        with pytest.raises(ConfigError):
            run_single_trial(cfg, "rank_aware", snr_idx=99)

    def test_negative_trial_index(self):
        cfg = ExperimentConfig(**SMALL)
        with pytest.raises(ConfigError, match="trial index"):
            run_single_trial(cfg, "rank_aware", trial=-1)
        with pytest.raises(ConfigError, match="trial index"):
            simulate_trial(cfg, trial=-3)

    def test_rank_hint_survives_failed_phase2(self, monkeypatch):
        # rank_aware hints each solve with the previous step's corrected
        # rank plus the headroom.  That rank is kept before Phase II runs,
        # so a step whose Phase II fails still hints the next step.
        hints = []
        phase2_calls = []
        real_complete = harness.r1mc_complete
        real_phase2 = harness.estimate_phase2

        def recording_complete(obs, rank_hint):
            hints.append(rank_hint)
            return real_complete(obs, rank_hint=rank_hint)

        def fail_first_phase2(*args, **kwargs):
            phase2_calls.append(None)
            if len(phase2_calls) == 1:
                raise DegenerateSystemError("injected Phase-II failure")
            return real_phase2(*args, **kwargs)

        monkeypatch.setattr(harness, "r1mc_complete", recording_complete)
        monkeypatch.setattr(harness, "estimate_phase2", fail_first_phase2)
        cfg = ExperimentConfig(snr_grid_db=(25.0,), n_trials=1, time_steps=3, master_seed=5)
        records = run_single_trial(cfg, "rank_aware")
        # The first step is hinted with its zero fill's rank.
        first = completion.estimate_rank(simulate_trial(cfg)[1][0].incomplete)
        assert hints == [first, 4, 4]
        assert [r.t for r in records if r.error] == [0]


def test_simulate_trial_shapes():
    cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0,), time_steps=2)
    track, observations = simulate_trial(cfg)
    assert len(track) == 2 and len(observations) == 2
    assert observations[0].incomplete.shape == (4, 8)
    assert track[0].matrix.shape == (4, 4)


class TestReports:
    def _records(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0, 20.0), n_trials=2)
        return run_sweep(cfg, variants=("rank_aware", "coarse_only"))

    def test_identical_variants_zero_gap(self):
        cfg = ExperimentConfig(**SMALL, snr_grid_db=(10.0, 20.0), n_trials=2)
        base = run_sweep(cfg, variants=("rank_aware",))
        twin = [dataclasses.replace(r, variant="rank_aware_twin") for r in base]
        report = summarize_records(base + twin)
        (gaps,) = report.gaps_db.values()
        assert np.all(gaps == 0.0)

    def test_gap_sign_on_schedule(self):
        # Both variants follow a rank change mid-run in Phase I;
        # rank_oblivious lacks only the rank cap on Phase II, and pays
        # for it.
        cfg = ExperimentConfig(
            **SMALL, snr_grid_db=(25.0,), n_trials=4, time_steps=4,
            rank_schedule=((2, 3),),
        )
        records = run_sweep(cfg, variants=("rank_aware", "rank_oblivious"))
        report = summarize_records(records)
        assert np.all(report.gaps_db[("rank_aware", "rank_oblivious")] < 0)

    def test_report_table_and_csv(self, tmp_path):
        report = summarize_records(self._records())
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


def test_benchmark_workloads_build(monkeypatch):
    # Each benchmark workload is a config document; a config-key change
    # that rejects one would otherwise show only when the benchmark runs.
    monkeypatch.setattr(sys, "path", list(sys.path))  # set_up prepends src/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    configs = {}
    for name in workloads.WORKLOADS:
        cfg, dictionary = workloads.set_up(name, 0)
        assert isinstance(cfg, ExperimentConfig) and dictionary.a_ms.shape[0] == cfg.channel.n_ms
        configs[name] = cfg
    assert configs["link"].ber_symbols > 0


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The traced benchmark wraps stage functions by name, reads their
    # return values and passes ``threads`` to run_sweep; a deletion or a
    # return-shape change that breaks any of these fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.trace_targets(harness, channel)
    assert targets
    # A rename in either module would otherwise show only when a traced
    # run crashes in ``Tracer.patched``.
    for target in targets:
        assert target.module in (harness, channel), target.name
        assert callable(vars(target.module).get(target.attr)), target.name
    assert "threads" in inspect.signature(harness.run_sweep).parameters

    # One small traced sweep runs every ``on_result`` on a real result,
    # and both pursuits and the BER link must still be reached through
    # the traced names.
    tracer = run.Tracer()
    cfg = ExperimentConfig(**SMALL, snr_grid_db=(15.0,), n_trials=1, ber_symbols=1000)
    with tracer.patched(targets):
        records = run_sweep(cfg, variants=("rank_aware", "somp_baseline"))
    assert records and not any(r.error for r in records)
    names = {sp.name for sp in tracer.spans}
    assert {"recovery.phase2", "recovery.somp", "harness.ber"} <= names
    # Every frontend stage behind perfbench's per-layer metrics must still
    # be called through its traced name, wherever the harness calls it.
    assert {"frontend.pilot", "frontend.observe", "frontend.mask", "frontend.coarse"} <= names
    for target in targets:
        if target.on_result is not None:
            infos = [sp.info for sp in tracer.spans if sp.name == target.name]
            assert infos and all(infos), target.name


def test_benchmark_tracer_sees_each_layer(monkeypatch):
    # The traced benchmark keys each job by _run_trial's (variant, SNR,
    # trial) arguments, counts a Phase-I solve only under its trial span,
    # reads the atom count of slot 0 of each Phase-II call and counts the
    # SOMP and Phase-II calls.  With SOMP stacked per trial and Phase II
    # per step, both outside _run_trial, all of these must still hold,
    # and tracing must not change a record.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    # run.py imports perfbench/spans.py as ``spans``; its Tracer is the one
    # the benchmark runs.
    spans = sys.modules["spans"]
    assert run.Tracer is spans.Tracer
    cfg = ExperimentConfig(**SMALL, snr_grid_db=(5.0, 25.0), n_trials=2, time_steps=2)
    untraced = [dataclasses.replace(r, runtime_ms=0.0) for r in run_sweep(cfg, DEFAULT_ABLATION)]
    tracer = spans.Tracer()
    with tracer.patched(run.trace_targets(harness, channel)):
        records = run_sweep(cfg, DEFAULT_ABLATION)
    assert [dataclasses.replace(r, runtime_ms=0.0) for r in records] == untraced
    by_id = {sp.id: sp for sp in tracer.spans}
    solves = [sp for sp in tracer.spans if sp.name == "completion.solve"]
    # 2 Phase-I variants x 2 SNRs x 2 trials x 2 steps, less the one
    # solve that fixed_rank:2 shares with rank_aware; rank_oblivious
    # takes rank_aware's solves.
    assert len(solves) == 15
    assert all(by_id[sp.parent].name == "harness.trial" for sp in solves)
    # One Phase-II call per step and one SOMP call per trial.
    phase2 = [sp for sp in tracer.spans if sp.name == "recovery.phase2"]
    assert len(phase2) == 4 and all("atoms" in sp.info for sp in phase2)
    assert sum(sp.name == "recovery.somp" for sp in tracer.spans) == 2
    keys = {by_id[sp.parent].key for sp in solves}
    assert keys == {f"{v}/snr{i}/trial{n}" for v in DEFAULT_ABLATION[:2] for i in (0, 1)
                    for n in (0, 1)}
