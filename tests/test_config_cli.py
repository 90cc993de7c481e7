"""Configuration parsing, validation, and command-line entry points."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc import (
    ChannelParams,
    ConfigError,
    DEFAULT_ABLATION,
    ExperimentConfig,
    HybridConfig,
    OmpOptions,
    SolverOptions,
    config_from_dict,
    config_to_dict,
    dump_defaults,
    load_config,
    load_tensor,
    parse_variant,
    read_records,
    snr_to_linear,
)
from ramc.cli import main

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
    n_clusters = draw(st.integers(1, 4))
    rays = draw(
        st.one_of(
            st.integers(1, 5),
            st.tuples(*[st.integers(1, 5)] * n_clusters),
        )
    )
    return ChannelParams(
        n_bs=draw(st.integers(1, 16)),
        n_ms=draw(st.integers(1, 16)),
        n_clusters=n_clusters,
        rays_per_cluster=rays,
        carrier_wavelength=draw(_POSITIVE),
        element_spacing=draw(st.none() | _POSITIVE),
        sample_period=draw(_POSITIVE),
        n_delay_taps=draw(st.integers(1, 8)),
        pulse_rolloff=draw(st.floats(0.0, 1.0)),
        angle_spread=draw(st.floats(0.0, 1.0)),
        normalization=draw(st.none() | st.integers(1, 20)),
        velocity=draw(st.floats(-100.0, 100.0)),
    )


@st.composite
def _hybrid_configs(draw):
    m_bs = draw(st.integers(1, 16))
    m_ms = draw(st.integers(1, 16))
    return HybridConfig(
        m_bs=m_bs,
        m_ms=m_ms,
        n_streams=draw(st.integers(1, m_ms)),
        phase_bits=draw(st.integers(1, 8)),
        pilot_length=draw(st.integers(m_bs, 64)),
    )


@st.composite
def _experiment_configs(draw):
    time_steps = draw(st.integers(1, 6))
    schedule = None
    if time_steps > 1:
        pair = st.tuples(st.integers(1, time_steps - 1), st.integers(1, 4))
        schedule = draw(st.none() | st.lists(pair, max_size=3).map(tuple))
    return ExperimentConfig(
        channel=draw(_channel_params()),
        hybrid=draw(_hybrid_configs()),
        solver=SolverOptions(
            epsilon=draw(st.none() | _POSITIVE),
            mu=draw(st.none() | st.floats(0.0, 10.0)),
            max_iters=draw(st.integers(1, 1000)),
            energy_ratio=draw(st.floats(0.01, 1.0)),
            refine_without_l1=draw(st.booleans()),
            rank_headroom=draw(st.integers(0, 4)),
        ),
        omp=OmpOptions(
            sparsity_cap=draw(st.none() | st.integers(1, 64)),
            residual_tol=draw(st.none() | st.floats(0.0, 1.0)),
            rank_cap_rule=draw(st.sampled_from(["squared", "linear"])),
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
            st.sampled_from(DEFAULT_ABLATION) | st.integers(1, 8).map("fixed_rank({})".format)
        ),
        on_grid=draw(st.booleans()),
        grid_oversampling=draw(st.integers(1, 4)),
        recovery_threshold_db=draw(st.floats(-40.0, 0.0)),
        ber_symbols=draw(st.just(0) | st.integers(1000, 10**6)),
        threads=draw(st.integers(1, 8)),
    )


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
            {"ber_symbols": 500},
            {"threads": 0},
            {"estimator_variant": "magic"},
        ],
    )
    def test_invalid_fields(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    def test_ber_symbols_off_or_large(self):
        assert ExperimentConfig(ber_symbols=0).ber_symbols == 0
        assert ExperimentConfig(ber_symbols=1000).ber_symbols == 1000

    @pytest.mark.parametrize(
        "schedule,steps",
        [
            (((0, 3),), 4),       # change at the first step is not a change
            (((4, 3),), 4),       # beyond the horizon
            (((2, 0),), 4),       # empty channel
            (((1, 2, 3),), 4),    # not a pair
        ],
    )
    def test_invalid_schedule(self, schedule, steps):
        with pytest.raises(ConfigError):
            ExperimentConfig(time_steps=steps, rank_schedule=schedule)

    def test_valid_schedule(self):
        cfg = ExperimentConfig(time_steps=8, rank_schedule=((4, 4), (6, 2)))
        assert cfg.rank_schedule == ((4, 4), (6, 2))


class TestParseVariant:
    @pytest.mark.parametrize(
        "name", ["rank_aware", "rank_oblivious", "coarse_only", "somp_baseline"]
    )
    def test_plain(self, name):
        assert parse_variant(name) == (name, None)

    @pytest.mark.parametrize("name", ["fixed_rank:3", "fixed_rank(3)"])
    def test_fixed_rank_forms(self, name):
        assert parse_variant(name) == ("fixed_rank", 3)

    @pytest.mark.parametrize("name", ["fixed_rank", "fixed_rank:0", "fixed_rank:x", "lmmse"])
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


class TestCliSimulate:
    def test_writes_artifacts(self, small_config, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--config", str(small_config), "--out", str(out)]
        )
        assert code == 0
        channels = load_tensor(out / "channels.ct")
        observed = load_tensor(out / "observed.ct")
        assert channels.shape == (1, 4, 4)
        assert observed.shape == (1, 4, 8)
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
        assert (out / "estimate.ct").exists()
        assert (out / "truth.ct").exists()
        assert (out / "support.csv").exists()
        assert (out / "trace.csv").exists()
        assert "nmse=" in capsys.readouterr().out

    def test_rows_keep_step_index_after_failed_step(self, tmp_path, monkeypatch, capsys):
        from ramc import InfeasibleMaskError, harness

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
