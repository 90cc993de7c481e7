"""Configuration parsing, validation, and command-line entry points."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramc
from ramc import harness
from ramc.channel import ChannelParams
from ramc.cli import main
from ramc.completion import SolverOptions
from ramc.config import (
    DEFAULT_ABLATION,
    MAX_BER_STREAMS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    dump_defaults,
    load_config,
    parse_variant,
    snr_to_linear,
)
from ramc.errors import ConfigError, InfeasibleMaskError
from ramc.frontend import HybridConfig
from ramc.harness import read_records, run_single_trial, simulate_trial

# Geometry small enough that CLI smoke tests run in well under a second.
SMALL_DOC = {
    "channel": {"n_bs": 4, "n_ms": 4, "n_clusters": 2, "rays_per_cluster": 1},
    "hybrid": {"m_bs": 4, "m_ms": 4, "n_streams": 2, "pilot_length": 8},
    "keep_fraction": 0.8,
    "snr_grid_db": [10.0, 20.0],
    "n_trials": 2,
}


_POSITIVE = st.floats(min_value=1e-9, max_value=1e9)


@st.composite
def _channel_params(draw):
    return ChannelParams(
        n_bs=draw(st.integers(1, 16)),
        n_ms=draw(st.integers(1, 16)),
        n_clusters=draw(st.integers(1, 4)),
        rays_per_cluster=draw(st.integers(1, 5)),
        carrier_wavelength=draw(_POSITIVE),
        sample_period=draw(_POSITIVE),
        pulse_rolloff=draw(st.floats(0.0, 1.0)),
        angle_spread=draw(st.floats(0.0, 1.0)),
        velocity=draw(st.floats(-100.0, 100.0)),
    )


@st.composite
def _hybrid_configs(draw, channel):
    # RF chains are bounded by the antennas at their end of the link, and
    # each stream needs a chain at both ends.
    m_bs = draw(st.integers(1, channel.n_bs))
    m_ms = draw(st.integers(1, channel.n_ms))
    return HybridConfig(
        m_bs=m_bs,
        m_ms=m_ms,
        n_streams=draw(st.integers(1, min(m_bs, m_ms))),
        phase_bits=draw(st.integers(1, 8)),
        pilot_length=draw(st.integers(m_bs, 64)),
    )


@st.composite
def _experiment_configs(draw):
    time_steps = draw(st.integers(1, 6))
    schedule = None
    if time_steps > 1:
        pair = st.tuples(st.integers(1, time_steps - 1), st.integers(1, 4))
        schedule = draw(
            st.none() | st.lists(pair, max_size=3, unique_by=lambda p: p[0]).map(tuple)
        )
    channel = draw(_channel_params())
    hybrid = draw(_hybrid_configs(channel))
    # The exact BER takes at most MAX_BER_STREAMS streams.
    ber_on = hybrid.n_streams <= MAX_BER_STREAMS
    return ExperimentConfig(
        channel=channel,
        hybrid=hybrid,
        solver=SolverOptions(
            mu=draw(st.none() | st.floats(0.0, 10.0)),
            max_iters=draw(st.integers(1, 1000)),
            energy_ratio=draw(st.floats(0.01, 1.0)),
            rank_headroom=draw(st.integers(0, 4)),
        ),
        snr_grid_db=tuple(
            draw(st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=6))
        ),
        keep_fraction=draw(st.floats(0.01, 1.0)),
        n_trials=draw(st.integers(1, 50)),
        time_steps=time_steps,
        rank_schedule=schedule,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        estimator_variant=draw(
            st.sampled_from(DEFAULT_ABLATION) | st.integers(1, 8).map("fixed_rank:{}".format)
        ),
        on_grid=draw(st.booleans()),
        grid_oversampling=draw(st.integers(1, 4)),
        recovery_threshold_db=draw(st.floats(-40.0, 0.0)),
        ber_symbols=draw(st.integers(0, 10**6)) if ber_on else 0,
        threads=draw(st.integers(1, 8)),
    )


# Documents whose values cannot be converted or validated; each must be
# rejected with ConfigError, not escape as a bare ValueError/TypeError.
_MALFORMED_DOCS = [
    pytest.param({"snr_grid_db": ["x"]}, id="snr-not-a-number"),
    pytest.param({"snr_grid_db": 5}, id="snr-not-a-list"),
    pytest.param({"snr_grid_db": [10.0, math.nan]}, id="snr-nan"),
    pytest.param({"rank_schedule": [[1]]}, id="schedule-short-pair"),
    pytest.param({"rank_schedule": [["a", 2]]}, id="schedule-not-a-number"),
    pytest.param({"omp": {"sparsity_cap": 4}}, id="removed-omp-section"),
    pytest.param({"channel": {"n_delay_taps": 2}}, id="removed-delay-taps"),
]


# Geometries on which every record would fail; each must be rejected at
# load, naming the bound it breaks.
_INFEASIBLE_GEOMETRY_DOCS = [
    pytest.param(
        {"channel": {"n_bs": 2}, "hybrid": {"m_bs": 4}}, "RF chains", id="bs-chains-over-antennas"
    ),
    pytest.param(
        {"channel": {"n_ms": 2}, "hybrid": {"m_ms": 4}}, "RF chains", id="ms-chains-over-antennas"
    ),
    pytest.param(
        {
            "channel": {"n_bs": 2},
            "hybrid": {"m_bs": 2, "m_ms": 4, "n_streams": 3, "pilot_length": 8},
            "ber_symbols": 1000,
        },
        "n_streams",
        id="streams-over-chains",
    ),
    pytest.param(
        {"hybrid": {"n_streams": 5}, "ber_symbols": 4000},
        "ber_symbols > 0 needs hybrid.n_streams <= 4",
        id="ber-streams-over-bound",
    ),
]


# Options that were deleted or narrowed to one form; a document that
# still sets them must fail at load, naming the key.
_REMOVED_OPTION_DOCS = [
    pytest.param({"channel": {"element_spacing": 0.005}}, "element_spacing", id="element-spacing"),
    pytest.param({"channel": {"normalization": 2}}, "normalization", id="normalization"),
    pytest.param({"solver": {"epsilon": 1e-6}}, "epsilon", id="epsilon"),
    pytest.param(
        {"channel": {"n_clusters": 2, "rays_per_cluster": [1, 2]}},
        "rays_per_cluster",
        id="rays-per-cluster-list",
    ),
]

# Integer keys given a float or a bool; each must fail at load, naming
# the key, instead of truncating or counting true as 1.
_NON_INTEGER_DOCS = [
    pytest.param({"n_trials": 2.5}, "n_trials", id="top-level-float"),
    pytest.param({"channel": {"rays_per_cluster": True}}, "rays_per_cluster", id="section-bool"),
    pytest.param({"solver": {"max_iters": 500.0}}, "max_iters", id="section-float"),
]

# Values whose JSON type differs from the key's type hint; each must fail
# at load, naming the key, instead of being converted.
_MISTYPED_DOCS = [
    pytest.param(
        {"time_steps": 3, "rank_schedule": [[1.7, True], ["2", 2.9]]},
        "rank_schedule",
        id="schedule-floats-bools-strings",
    ),
    pytest.param({"keep_fraction": True}, "keep_fraction", id="float-bool"),
    pytest.param({"solver": {"mu": True}}, "solver.mu", id="optional-float-bool"),
    pytest.param({"snr_grid_db": [True, "5"]}, "snr_grid_db", id="snr-bool-string"),
    pytest.param({"on_grid": 1}, "on_grid", id="bool-int"),
    pytest.param({"estimator_variant": 2}, "estimator_variant", id="str-int"),
]

# Every key dump_defaults() prints, sections flattened to "section.key".
_DEFAULT_KEYS = {
    "channel.n_bs", "channel.n_ms", "channel.n_clusters", "channel.rays_per_cluster",
    "channel.carrier_wavelength", "channel.sample_period", "channel.pulse_rolloff",
    "channel.angle_spread", "channel.velocity",
    "hybrid.m_bs", "hybrid.m_ms", "hybrid.n_streams", "hybrid.phase_bits",
    "hybrid.pilot_length",
    "solver.mu", "solver.max_iters", "solver.energy_ratio", "solver.rank_headroom",
    "snr_grid_db", "keep_fraction", "n_trials", "time_steps", "rank_schedule",
    "master_seed", "estimator_variant", "on_grid", "grid_oversampling",
    "recovery_threshold_db", "ber_symbols", "threads",
}


def _assert_bit_exact(loaded, matrices):
    expected = np.array(matrices, dtype=np.complex128)
    assert loaded.dtype == np.complex128 and loaded.shape == expected.shape
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_DOC))
    return path


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        assert cfg.keep_fraction == 0.6
        assert cfg.estimator_variant == "rank_aware"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_grid_db": ()},
            {"keep_fraction": 0.0},
            {"keep_fraction": 1.5},
            {"n_trials": 0},
            {"time_steps": 0},
            {"grid_oversampling": 0},
            {"ber_symbols": -1},
            {"ber_symbols": 1, "hybrid": HybridConfig(n_streams=5)},
            {"threads": 0},
            {"master_seed": -1},
            {"estimator_variant": "magic"},
            {"snr_grid_db": (5.0, math.nan)},
        ],
    )
    def test_invalid_fields(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    def test_ber_symbols_off_or_large(self):
        # 0 is off and any positive count is on: the BER is exact, so the
        # count sets no sample size.
        assert ExperimentConfig(ber_symbols=0).ber_symbols == 0
        assert ExperimentConfig(ber_symbols=1).ber_symbols == 1
        assert ExperimentConfig(ber_symbols=1000).ber_symbols == 1000
        assert ExperimentConfig(hybrid=HybridConfig(n_streams=8)).hybrid.n_streams == 8

    @pytest.mark.parametrize(
        "schedule,steps",
        [
            (((0, 3),), 4),       # change at the first step is not a change
            (((4, 3),), 4),       # beyond the horizon
            (((2, 0),), 4),       # empty channel
            (((1, 2, 3),), 4),    # not a pair
            (((1, 3), (1, 1)), 3),  # one time, two cluster counts
        ],
    )
    def test_invalid_schedule(self, schedule, steps):
        with pytest.raises(ConfigError):
            ExperimentConfig(time_steps=steps, rank_schedule=schedule)

    def test_valid_schedule(self):
        cfg = ExperimentConfig(time_steps=8, rank_schedule=((4, 4), (6, 2)))
        assert cfg.rank_schedule == ((4, 4), (6, 2))

    def test_every_section_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.solver.max_iters = 1
        assert hash(cfg) == hash(ExperimentConfig())


class TestParseVariant:
    @pytest.mark.parametrize(
        "name", ["rank_aware", "rank_oblivious", "coarse_only", "somp_baseline"]
    )
    def test_plain(self, name):
        assert parse_variant(name) == (name, None)

    @pytest.mark.parametrize("name", ["fixed_rank:3"])
    def test_fixed_rank_forms(self, name):
        assert parse_variant(name) == ("fixed_rank", 3)

    @pytest.mark.parametrize(
        "name", ["fixed_rank", "fixed_rank:0", "fixed_rank:x", "fixed_rank(3)", "lmmse"]
    )
    def test_rejected(self, name):
        with pytest.raises(ConfigError):
            parse_variant(name)

    def test_default_ablation_parses(self):
        for name in DEFAULT_ABLATION:
            parse_variant(name)


class TestConfigDocument:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            snr_grid_db=(5.0, 15.0),
            time_steps=4,
            rank_schedule=((2, 3),),
            master_seed=7,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @settings(max_examples=100, deadline=None)
    @given(cfg=_experiment_configs())
    def test_round_trip_property(self, cfg):
        doc = config_to_dict(cfg)
        assert config_from_dict(doc) == cfg
        assert config_from_dict(json.loads(json.dumps(doc))) == cfg

    def test_dump_defaults_round_trip(self):
        assert config_from_dict(json.loads(dump_defaults())) == ExperimentConfig()

    def test_dump_defaults_key_set(self):
        keys = set()
        for name, value in json.loads(dump_defaults()).items():
            keys |= {f"{name}.{key}" for key in value} if isinstance(value, dict) else {name}
        assert keys == _DEFAULT_KEYS and len(keys) == 30

    def test_sections_built(self):
        cfg = config_from_dict(SMALL_DOC)
        assert cfg.channel.n_bs == 4
        assert cfg.hybrid.pilot_length == 8
        assert cfg.snr_grid_db == (10.0, 20.0)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="snr_grid"):
            config_from_dict({"snr_grid": [0.0]})

    def test_unknown_section_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"solver\.bogus"):
            config_from_dict({"solver": {"bogus": 1}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="channel"):
            config_from_dict({"channel": 3})

    def test_document_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_invalid_section_value_reports_path(self):
        with pytest.raises(ConfigError, match="channel"):
            config_from_dict({"channel": {"n_bs": 0}})

    @pytest.mark.parametrize("doc", _MALFORMED_DOCS)
    def test_malformed_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_integer_numbers_load_as_floats(self):
        cfg = config_from_dict(
            {"snr_grid_db": [5, 15], "keep_fraction": 1, "solver": {"mu": 0}}
        )
        assert cfg.snr_grid_db == (5.0, 15.0)
        assert {type(v) for v in (*cfg.snr_grid_db, cfg.keep_fraction, cfg.solver.mu)} == {float}

    def test_infinite_snr_allowed(self):
        # +inf dB is a noiseless link; -inf dB leaves no signal to estimate.
        cfg = config_from_dict({"snr_grid_db": [5.0, math.inf]})
        assert cfg.snr_grid_db == (5.0, math.inf)
        with pytest.raises(ConfigError, match="-inf"):
            config_from_dict({"snr_grid_db": [5.0, -math.inf]})

    def test_finite_snr_within_300_db(self):
        cfg = config_from_dict({"snr_grid_db": [-300.0, 300.0]})
        assert cfg.snr_grid_db == (-300.0, 300.0)
        for snr in (-300.5, 300.5):
            with pytest.raises(ConfigError, match="300"):
                config_from_dict({"snr_grid_db": [snr]})

    def test_load_config(self, small_config):
        cfg = load_config(small_config)
        assert cfg.keep_fraction == 0.8

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestSnrToLinear:
    def test_values(self):
        assert snr_to_linear(0.0) == pytest.approx(1.0)
        assert snr_to_linear(10.0) == pytest.approx(10.0)
        assert snr_to_linear(-math.inf) == 0.0
        assert snr_to_linear(math.inf) == math.inf


class TestCliConfig:
    def test_prints_defaults(self, capsys):
        assert main(["config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert config_from_dict(doc) == ExperimentConfig()

    def test_writes_file(self, tmp_path):
        out = tmp_path / "defaults.json"
        assert main(["config", "--out", str(out)]) == 0
        assert config_from_dict(json.loads(out.read_text())) == ExperimentConfig()

    def test_validates_and_echoes(self, small_config, capsys):
        assert main(["config", "--config", str(small_config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["keep_fraction"] == 0.8

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"keep_fraction": 2.0}))
        assert main(["config", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"master_seed": -5}))
        assert main(["config", "--config", str(path)]) == 1
        assert "config error: master_seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,bound", _INFEASIBLE_GEOMETRY_DOCS)
    def test_infeasible_geometry_rejected(self, doc, bound, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and bound in err

    @pytest.mark.parametrize("doc", _MALFORMED_DOCS)
    def test_malformed_config_exit_code(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["config", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,key", _REMOVED_OPTION_DOCS)
    def test_removed_option_rejected(self, doc, key, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err

    @pytest.mark.parametrize("doc,key", _NON_INTEGER_DOCS)
    @pytest.mark.parametrize("command", ["config", "sweep"])
    def test_non_integer_count_rejected(self, command, doc, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_DOC, **doc)))
        args = [command, "--config", str(path)]
        if command == "sweep":
            args += ["--out", str(tmp_path / "records.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err and "integer" in err


    @pytest.mark.parametrize("doc,key", _MISTYPED_DOCS)
    def test_mistyped_value_rejected(self, doc, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err


class TestCliSimulate:
    def test_writes_artifacts(self, small_config, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--config", str(small_config), "--out", str(out)]
        )
        assert code == 0
        channels = np.load(out / "channels.npy")
        observed = np.load(out / "observed.npy")
        assert channels.shape == (1, 4, 4)
        assert observed.shape == (1, 4, 8)
        # Bit for bit what the program simulated, at the highest grid SNR.
        track, observations = simulate_trial(load_config(small_config), snr_idx=1)
        _assert_bit_exact(channels, [real.matrix for real in track])
        _assert_bit_exact(observed, [obs.incomplete for obs in observations])
        assert (out / "singular_values.csv").exists()
        assert (out / "mask_t0.csv").exists()
        assert "simulated 1 step(s) at 20.0 dB" in capsys.readouterr().out

    def test_snr_off_grid_rejected(self, small_config, tmp_path):
        code = main(
            ["simulate", "--config", str(small_config),
             "--out", str(tmp_path / "x"), "--snr", "12.5"]
        )
        assert code == 1


class TestCliEstimate:
    def test_writes_artifacts(self, small_config, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(
            ["estimate", "--config", str(small_config), "--out", str(out), "--trace"]
        )
        assert code == 0
        assert (out / "records.csv").exists()
        artifacts: dict = {}
        run_single_trial(load_config(small_config), snr_idx=1, artifacts=artifacts)
        _assert_bit_exact(np.load(out / "estimate.npy"), artifacts["estimate"])
        _assert_bit_exact(np.load(out / "truth.npy"), artifacts["truth"])
        assert (out / "support.csv").exists()
        assert (out / "trace.csv").exists()
        assert "nmse=" in capsys.readouterr().out

    def test_rows_keep_step_index_after_failed_step(self, tmp_path, monkeypatch, capsys):
        real_subsample = harness.subsample
        calls = []

        def fail_second_step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise InfeasibleMaskError("injected failure at t=1")
            return real_subsample(*args, **kwargs)

        monkeypatch.setattr(harness, "subsample", fail_second_step)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SMALL_DOC, time_steps=3)))
        out = tmp_path / "est"
        code = main(
            ["estimate", "--config", str(path), "--out", str(out), "--trace"]
        )
        assert code == 2
        assert [r.error for r in read_records(out / "records.csv")] == [
            "", "InfeasibleMaskError: injected failure at t=1", ""
        ]
        for name in ("support.csv", "trace.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            assert {row.split(",")[0] for row in rows} == {"0", "2"}, name

    def test_somp_support_rows(self, tmp_path, monkeypatch, capsys):
        real_somp = harness.somp_baseline
        found = []

        def recording_somp(*args, **kwargs):
            found.append(real_somp(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(harness, "somp_baseline", recording_somp)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SMALL_DOC, time_steps=2)))
        out = tmp_path / "est"
        code = main(
            ["estimate", "--config", str(path), "--out", str(out), "--variant", "somp_baseline"]
        )
        assert code == 0 and len(found) == 2
        grid_aoa = harness._dictionary(load_config(path)).grid_aoa
        with open(out / "support.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for t, est in enumerate(found):
            step = [row for row in rows if row["t"] == str(t)]
            assert len(step) == len(est.support) > 0
            for row, k in zip(step, est.support):
                assert float(row["aoa_deg"]) == np.degrees(grid_aoa[k])
                assert row["aod_deg"] == row["gain_re"] == row["gain_im"] == ""
                assert float(row["gain_abs"]) == pytest.approx(np.linalg.norm(est.gains[k]))

    def test_failed_trial_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL_DOC, keep_fraction=0.14)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "est"
        code = main(["estimate", "--config", str(path), "--out", str(out)])
        assert code == 2
        records = read_records(out / "records.csv")
        assert records[0].error == (
            "InfeasibleMaskError: 5 observations cannot cover 4 rows and 8 columns"
        )


class TestCliSweep:
    def test_deterministic_csv(self, small_config, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(small_config), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(small_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_records(a)) == 4
        assert "wrote 4 records" in capsys.readouterr().out

    def test_unknown_variant(self, small_config, tmp_path):
        code = main(
            ["sweep", "--config", str(small_config),
             "--out", str(tmp_path / "x.csv"), "--variant", "lmmse"]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["sweep", "estimate"])
    def test_empty_variant_rejected(self, command, small_config, tmp_path, capsys):
        # An empty name is a bad variant, not a request for the default.
        out = tmp_path / "x"
        code = main([command, "--config", str(small_config), "--out", str(out), "--variant", ""])
        assert code == 1
        assert "unknown estimator variant ''" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_extreme_snr_rejected(self, snr_db, tmp_path, capsys):
        # 10**(snr/10) overflows above about 3,083 dB and underflows to 0
        # below about -3,236 dB; either is a config error, not a traceback.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SMALL_DOC, snr_grid_db=[snr_db])))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "[-300, 300] dB" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_data(self, small_config, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sweep", "--config", str(small_config), "--out", str(a)])
        main(["sweep", "--config", str(small_config), "--out", str(b), "--seed", "9"])
        assert a.read_bytes() != b.read_bytes()


class TestCliAblate:
    def test_two_variants(self, small_config, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main(
            ["ablate", "--config", str(small_config), "--out", str(out),
             "--variant", "coarse_only", "--variant", "fixed_rank:2"]
        )
        assert code == 0
        records = read_records(out / "records.csv")
        assert {r.variant for r in records} == {"coarse_only", "fixed_rank:2"}
        assert (out / "report.csv").exists()
        assert "gap" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "variants",
        [
            pytest.param(["rank_aware"], id="one"),
            pytest.param(["rank_aware", "rank_aware"], id="one-repeated"),
            pytest.param(["coarse_only", "rank_aware", "coarse_only"], id="repeated"),
        ],
    )
    def test_single_variant_rejected(self, variants, small_config, tmp_path, capsys):
        # Rejected before the sweep runs, so nothing is written.
        out = tmp_path / "abl"
        flags = [arg for name in variants for arg in ("--variant", name)]
        code = main(["ablate", "--config", str(small_config), "--out", str(out), *flags])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "records.csv").exists()


def test_cli_imports_numpy_only():
    # ramc.cli loads every module; scipy is a test-time reference only.
    src = os.path.dirname(os.path.dirname(ramc.__file__))
    probe = "import sys, ramc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command,option",
    [("sweep", ["--seed", "-1"]), ("estimate", ["--trial", "-1"]), ("simulate", ["--trial", "-3"])],
)
def test_negative_seed_or_trial_is_a_config_error(command, option, small_config, tmp_path, capsys):
    # Seeds derive from (master_seed, tag, trial, t), which numpy's
    # SeedSequence takes only non-negative; the CLI reports a config error.
    out = tmp_path / "x"
    assert main([command, "--config", str(small_config), "--out", str(out), *option]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


class TestCliParsing:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_out(self):
        assert main(["sweep"]) == 1

    def test_bad_threads(self, small_config, tmp_path):
        code = main(
            ["sweep", "--config", str(small_config),
             "--out", str(tmp_path / "x.csv"), "--threads", "0"]
        )
        assert code == 1
