"""Small statistics and naming helpers shared by the benchmark scripts.

Nothing here imports ``ramc``, so the helpers can be tested and used by
the steadiness script without paying the package's import cost.
"""

from __future__ import annotations

import math
import re
import statistics

# Standard percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie above it.
TAIL_MIN_BEYOND = 10

_METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_INVALID_RUN_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError.

    A name starts with a letter or digit and holds at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not _METRIC_NAME_RE.match(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    """Return ``unit`` if it is a legal unit, else raise ValueError."""
    if not isinstance(unit, str) or not _UNIT_RE.match(unit):
        raise ValueError(f"illegal metric unit {unit!r}")
    return unit


def variant_suffix(variant: str) -> str:
    """Metric-name suffix of an estimator variant.

    Characters a metric name cannot hold collapse to one ``_``, so
    ``fixed_rank:2`` and ``fixed_rank(2)`` both become ``fixed_rank_2``.
    """
    suffix = _INVALID_RUN_RE.sub("_", variant).strip("_")
    return validate_metric_name(suffix)


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = max(math.ceil(q / 100.0 * len(ordered) - 1e-9), 1)
    return ordered[rank - 1]


def tail(values) -> dict:
    """Median plus the highest standard percentile backed by the sample.

    The tail is the highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples above it; it is ``None`` when even
    the median lacks that many.  ``n`` is the sample count.
    """
    values = list(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "tail_q": None, "tail": None}
    for q in reversed(TAIL_PERCENTILES):
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            out["tail_q"] = q
            out["tail"] = percentile(values, q)
            break
    return out


def spread(values) -> dict:
    """Median, quartiles and IQR / median of repeated measurements.

    Quartiles follow ``statistics.quantiles(values, n=4)``; with fewer
    than two values they collapse to the single value.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("spread of an empty sample")
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (q3 - q1) / abs(med) if med else math.inf
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel}
