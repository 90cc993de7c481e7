"""Benchmark workloads and the set-up a user pays before a sweep.

Each workload is a config document (as ``ramc.config.config_from_dict``
reads it, without ``master_seed``, which comes from ``--seed``) plus
the estimator variants the sweep runs.  Why each one exists:

ablation
    The five ``DEFAULT_ABLATION`` variants side by side at SNR 5/15/25 dB
    with 2 time steps, so that ``rank_aware`` also solves with the
    tracker's rank hint at t=1.  Phase I (``r1mc_complete``) takes about
    93% of the time, so every Phase-I change and its accuracy cost shows
    here.  A sweep takes about 36 s, so a run measures one sweep and a
    traced run about twice ``run_seconds``.  A sweep's cost depends on
    the seed: a trial's Phase-I solves stop early or keep more factors
    depending on its draws, so one trial's summed ``runtime_ms`` over the
    three SNRs has a coefficient of variation of 0.14 (16 trials, 2-vCPU
    VM).  Resampling those trials puts IQR/median of a 3-trial sweep over
    seeds at about 0.10, against 0.09-0.15 for the single-SNR or
    independent-SNR grids of the same cost; one trial (three sweeps per
    run) was measured at 0.30 over seeds 11-15.
link
    ``coarse_only`` and ``somp_baseline`` with a 4000-symbol BER link on
    the default 6-point SNR grid.  Phase I never runs; the time goes to
    the BER link, channel draws, the pilot frontend and the rank
    estimate, so cost moved into a shared layer shows here and a
    Phase-I-only change should leave it unchanged.

An 8-step ``rank_aware`` tracking workload (rank-hinted solves, 256 atoms)
was tried and left out: the tracker's rank hints set each solve's factor
count, so a trial's cost varies by up to a third with the seed, and the
few trials that fit in a run did not repeat within a 0.25 bound.

Nothing here imports ``ramc`` at module level: :func:`set_up` is the
timed set-up and must import the package itself.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "ablation": {
        "config": {"snr_grid_db": [5.0, 15.0, 25.0], "time_steps": 2, "n_trials": 3},
        "variants": (
            "rank_aware",
            "fixed_rank:2",
            "rank_oblivious",
            "coarse_only",
            "somp_baseline",
        ),
    },
    "link": {
        "config": {"time_steps": 4, "ber_symbols": 4000, "n_trials": 40},
        "variants": ("coarse_only", "somp_baseline"),
    },
}

# Every sweep runs in the calling thread; see ROADMAP's thread measurements.
SWEEP_THREADS = 1


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def import_ramc():
    """Import ``ramc`` from this checkout's ``src/`` tree and nowhere else."""
    init = os.path.join(SRC, "ramc", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no ramc sources at {init}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import ramc

    if os.path.abspath(ramc.__file__) != init:
        raise BenchError(f"imported ramc from {ramc.__file__}, expected {init}")
    return ramc


def set_up(name: str, seed: int):
    """Import ``ramc``, build and validate the config, build the dictionary.

    Returns ``(cfg, dictionary)``.  This is exactly the work the
    ``setup_s`` metric times in a fresh interpreter.
    """
    spec = WORKLOADS[name]
    import_ramc()
    from ramc.channel import make_dictionary
    from ramc.config import config_from_dict

    cfg = config_from_dict(
        {**spec["config"], "master_seed": seed, "threads": SWEEP_THREADS}
    )
    dictionary = make_dictionary(
        cfg.channel,
        size_ms=cfg.grid_oversampling * cfg.channel.n_ms,
        size_bs=cfg.grid_oversampling * cfg.channel.n_bs,
    )
    return cfg, dictionary
