"""Experiment configuration: defaults, parsing and validation.

Configs are JSON documents mirroring the dataclass tree below.  Unknown
keys are rejected with their full path so typos fail loudly instead of
silently running the default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field, fields

from .channel import ChannelParams
from .completion import SolverOptions
from .errors import ConfigError
from .frontend import HybridConfig

VARIANTS = ("rank_aware", "fixed_rank", "rank_oblivious", "coarse_only", "somp_baseline")

# Concrete variant list for side-by-side ablations (fixed_rank needs a rank).
DEFAULT_ABLATION = (
    "rank_aware",
    "fixed_rank:2",
    "rank_oblivious",
    "coarse_only",
    "somp_baseline",
)

_FIXED_RANK_RE = re.compile(r"^fixed_rank:(\d+)$")


def parse_variant(name: str) -> tuple[str, int | None]:
    """Split an estimator variant name into (kind, parameter).

    ``fixed_rank`` takes its rank as ``fixed_rank:k``.
    """
    if name in ("rank_aware", "rank_oblivious", "coarse_only", "somp_baseline"):
        return name, None
    match = _FIXED_RANK_RE.match(name)
    if match:
        k = int(match.group(1))
        if k < 1:
            raise ConfigError(f"fixed rank must be >= 1 in {name!r}")
        return "fixed_rank", k
    raise ConfigError(
        f"unknown estimator variant {name!r}; expected one of {VARIANTS} "
        "(fixed_rank takes a rank, e.g. fixed_rank:3)"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment."""

    channel: ChannelParams = field(default_factory=ChannelParams)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    keep_fraction: float = 0.6
    n_trials: int = 20
    time_steps: int = 1
    rank_schedule: tuple[tuple[int, int], ...] | None = None
    master_seed: int = 0
    estimator_variant: str = "rank_aware"
    on_grid: bool = True
    # Critically sampled grid: steering columns are orthogonal, so greedy
    # atom selection is exact on noiseless on-grid channels.  Oversampled
    # grids (2+) trade that for finer angle resolution.
    grid_oversampling: int = 1
    recovery_threshold_db: float = -10.0
    ber_symbols: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        if any(math.isnan(snr) for snr in self.snr_grid_db):
            raise ConfigError("snr_grid_db must not hold NaN")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("keep_fraction must lie in (0, 1]")
        if self.n_trials < 1 or self.time_steps < 1:
            raise ConfigError("n_trials and time_steps must be >= 1")
        if self.grid_oversampling < 1:
            raise ConfigError("grid_oversampling must be >= 1")
        if self.ber_symbols < 0:
            raise ConfigError("ber_symbols must be non-negative")
        if 0 < self.ber_symbols < 1000:
            raise ConfigError("ber_symbols must be 0 (off) or >= 1000")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        parse_variant(self.estimator_variant)
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


_SECTIONS = {
    "channel": ChannelParams,
    "hybrid": HybridConfig,
    "solver": SolverOptions,
}


def _check_int_keys(cls, data: dict, prefix: str) -> None:
    # JSON numbers need not be integers: 2.5 would reach a range(), and
    # true would count as 1.
    for f in fields(cls):
        if f.type == "int" and f.name in data and type(data[f.name]) is not int:
            raise ConfigError(f"{prefix}{f.name} must be an integer, got {data[f.name]!r}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path}.{key}")
        kwargs[key] = value
    _check_int_keys(cls, data, f"{path}.")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    try:
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key}")
            if key in _SECTIONS:
                kwargs[key] = _build_section(_SECTIONS[key], value, key)
            elif key == "snr_grid_db":
                kwargs[key] = tuple(float(v) for v in value)
            elif key == "rank_schedule":
                kwargs[key] = (
                    None if value is None else tuple((int(t), int(c)) for t, c in value)
                )
            else:
                kwargs[key] = value
        _check_int_keys(ExperimentConfig, data, "")
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = dataclasses.asdict(cfg)
    for key, value in list(data.items()):
        if isinstance(value, tuple):
            data[key] = list(value)
    if data["rank_schedule"] is not None:
        data["rank_schedule"] = [list(pair) for pair in data["rank_schedule"]]
    return data


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_defaults() -> str:
    """Default configuration as a JSON document."""
    return json.dumps(config_to_dict(ExperimentConfig()), indent=2)


def snr_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0) if math.isfinite(snr_db) else (
        0.0 if snr_db == -math.inf else math.inf
    )
