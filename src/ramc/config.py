"""Experiment configuration: defaults, parsing and validation.

Configs are JSON documents mirroring the dataclass tree below.  Unknown
keys, and values whose JSON type does not match the field's type hint,
are rejected with their full path, so mistakes fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from .channel import ChannelParams
from .errors import ConfigError
from .frontend import HybridConfig

# The exact BER's cost grows as 4^s in the stream count s.
MAX_BER_STREAMS = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment."""

    channel: ChannelParams = field(default_factory=ChannelParams)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    keep_fraction: float = 0.6
    n_trials: int = 20
    time_steps: int = 1
    rank_schedule: tuple[tuple[int, int], ...] | None = None
    master_seed: int = 0
    on_grid: bool = True
    # Critically sampled grid: steering columns are orthogonal, so greedy
    # atom selection is exact on noiseless on-grid channels.  Oversampled
    # grids (2+) trade that for finer angle resolution.
    grid_oversampling: int = 1
    recovery_threshold_db: float = -10.0
    # 0 turns the BER column off; any positive count turns it on.  The
    # BER is exact (see ramc.harness.ber_link), so the count sets nothing
    # else, and at most MAX_BER_STREAMS hybrid.n_streams are allowed.
    ber_symbols: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        check_snr_db(self.snr_grid_db, "snr_grid_db")
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            raise ConfigError(f"snr_grid_db repeats an SNR: {self.snr_grid_db}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("keep_fraction must lie in (0, 1]")
        if self.n_trials < 1 or self.time_steps < 1:
            raise ConfigError("n_trials and time_steps must be >= 1")
        if not math.isfinite(self.recovery_threshold_db):
            raise ConfigError("recovery_threshold_db must be finite")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.grid_oversampling < 1:
            raise ConfigError("grid_oversampling must be >= 1")
        if self.ber_symbols < 0:
            raise ConfigError("ber_symbols must be non-negative")
        if self.ber_symbols > 0 and self.hybrid.n_streams > MAX_BER_STREAMS:
            raise ConfigError(f"ber_symbols > 0 needs hybrid.n_streams <= {MAX_BER_STREAMS}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.hybrid.m_bs > self.channel.n_bs or self.hybrid.m_ms > self.channel.n_ms:
            raise ConfigError(
                f"RF chains (hybrid.m_bs={self.hybrid.m_bs}, hybrid.m_ms={self.hybrid.m_ms}) "
                f"cannot exceed antenna count (channel.n_bs={self.channel.n_bs}, "
                f"channel.n_ms={self.channel.n_ms})"
            )
        if self.rank_schedule is not None:
            for entry in self.rank_schedule:
                if len(entry) != 2:
                    raise ConfigError(
                        f"rank_schedule entries are (time, clusters) pairs, got {entry}"
                    )
                when, count = entry
                if not 1 <= when < self.time_steps:
                    raise ConfigError(
                        f"rank_schedule time {when} outside [1, {self.time_steps})"
                    )
                if count < 1:
                    raise ConfigError("rank_schedule cluster counts must be >= 1")
            times = [when for when, _ in self.rank_schedule]
            if len(set(times)) != len(times):
                raise ConfigError(f"rank_schedule repeats a time: {self.rank_schedule}")
        if self.on_grid:
            # Each on-grid cluster takes an AoA row and an AoD column that no
            # earlier one holds; past the grid's min(rows, cols) every further
            # cluster spends all its rejection draws.
            cells = self.grid_oversampling * min(self.channel.n_ms, self.channel.n_bs)
            counts = [("channel.n_clusters", self.channel.n_clusters)]
            counts += [("rank_schedule", count) for _, count in self.rank_schedule or ()]
            for key, count in counts:
                if count > cells:
                    raise ConfigError(
                        f"{key} cluster count {count} exceeds the {cells} distinct rows and "
                        "columns of the on-grid dictionary "
                        "(grid_oversampling * min(channel.n_ms, channel.n_bs))"
                    )


_JSON_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def _typed(kind, value):
    """``value`` checked against the type hint ``kind``; a JSON integer
    is a valid float, but true and false are not numbers."""
    if get_origin(kind) is types.UnionType:  # X | None
        return None if value is None else _typed(get_args(kind)[0], value)
    if get_origin(kind) is tuple:
        args = get_args(kind)
        if isinstance(value, (list, tuple)) and args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise TypeError(f"expected a {kind} as a list, got {value!r}")
        return tuple(_typed(k, v) for k, v in zip(args, value))
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise TypeError(f"expected {_JSON_KINDS[kind]} within the float range") from None
    if type(value) is not kind:
        raise TypeError(f"expected {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _build(cls, data, path: str):
    """Build ``cls`` from a JSON object whose keys are its fields, each
    checked against its type hint; a dataclass-typed field is a section."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{path}.{key}" if path else key
        if key not in hints:
            # Each key of an unknown section is named, so that a deleted
            # section's keys are too.
            inner = [f"{name}.{k}" for k in value] if isinstance(value, dict) else []
            raise ConfigError(f"unknown config key {', '.join(inner or [name])}")
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _build(hints[key], value, name)
            continue
        try:
            kwargs[key] = _typed(hints[key], value)
        except TypeError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a JSON document."""
    return _build(ExperimentConfig, data, "")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_defaults() -> str:
    """Default configuration as a JSON document."""
    return json.dumps(dataclasses.asdict(ExperimentConfig()), indent=2)


def check_snr_db(snrs, name: str) -> None:
    """Raise ConfigError unless every SNR in ``snrs`` is +inf or within 300 dB."""
    # +inf is a noiseless link; -inf would leave no signal to estimate.
    if not all(snr > -math.inf for snr in snrs):
        raise ConfigError(f"{name} must not hold NaN or -inf")
    # Within 300 dB (a ratio of 1e+-30) no noise variance or scale over- or underflows.
    if any(math.isfinite(snr) and abs(snr) > 300.0 for snr in snrs):
        raise ConfigError(f"finite {name} values must lie in [-300, 300] dB")


def snr_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)
