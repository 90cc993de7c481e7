"""Command-line entry points.

Subcommands: ``simulate`` (channel + masked pilot data), ``estimate``
(one two-phase estimation trial with artifact export), ``sweep``
(estimator variants compared over the SNR grid) and ``config``
(defaults / validation).

``simulate`` writes ``channels.npy`` and ``observed.npy``, ``estimate``
writes ``estimate.npy`` and ``truth.npy``: complex128 (steps, rows,
cols) arrays for ``np.load``.  ``sweep`` writes ``records.csv`` and the
ablation ``report.csv`` of its variants, all five of
``DEFAULT_ABLATION`` unless ``--variant`` names some.  Exit code 0 on
success, 1 for configuration problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, dump_defaults, load_config
from .errors import ConfigError, RamcError
from .harness import (
    DEFAULT_ABLATION,
    run_single_trial,
    run_sweep,
    simulate_trial,
    summarize_records,
    write_records,
    write_report,
)
from .io import export_mask, export_singular_values, export_support, write_solver_trace


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the configuration exit code."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(parser, out_help: str):
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", metavar="PATH", required=True, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a channel track and masked pilots")
    _add_common(p, "output directory for channels.npy, observed.npy and CSV exports")
    p.add_argument("--snr", type=float, help="grid SNR in dB (default: highest)")
    p.add_argument("--trial", type=int, default=0, help="trial index (default 0)")

    p = sub.add_parser("estimate", help="run one estimation trial")
    _add_common(p, "output directory for estimate.npy, truth.npy and CSV exports")
    p.add_argument("--snr", type=float, help="grid SNR in dB (default: highest)")
    p.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    p.add_argument(
        "--variant", default="rank_aware", help="estimator variant (default rank_aware)"
    )
    p.add_argument(
        "--trace", action="store_true", help="write the completion solver trace"
    )

    p = sub.add_parser("sweep", help="compare estimator variants over the SNR grid")
    _add_common(p, "output directory for records.csv and report.csv")
    p.add_argument(
        "--variant",
        action="append",
        help="variant to include (repeatable; default: all of DEFAULT_ABLATION)",
    )

    p = sub.add_parser("config", help="print defaults or validate a config")
    p.add_argument("--config", metavar="PATH", help="JSON config to validate")
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _snr_index(cfg: ExperimentConfig, snr: float | None) -> int:
    if snr is None:
        return max(range(len(cfg.snr_grid_db)), key=lambda i: cfg.snr_grid_db[i])
    for i, value in enumerate(cfg.snr_grid_db):
        if value == snr:
            return i
    raise ConfigError(f"snr {snr} dB is not on the configured grid {cfg.snr_grid_db}")


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save(path, matrices) -> None:
    np.save(path, np.array(matrices, dtype=np.complex128))


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    snr_idx = _snr_index(cfg, args.snr)
    track, observations = simulate_trial(cfg, snr_idx=snr_idx, trial=args.trial)
    out = _outdir(args.out)
    _save(out / "channels.npy", [real.matrix for real in track])
    _save(out / "observed.npy", [obs.incomplete for obs in observations])
    export_singular_values(out / "singular_values.csv", [r.matrix for r in track])
    for t, obs in enumerate(observations):
        export_mask(out / f"mask_t{t}.csv", obs.mask)
    print(
        f"simulated {len(track)} step(s) at {cfg.snr_grid_db[snr_idx]} dB "
        f"into {out}"
    )
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load(args)
    snr_idx = _snr_index(cfg, args.snr)
    artifacts: dict = {}
    records = run_single_trial(
        cfg, args.variant, snr_idx=snr_idx, trial=args.trial, artifacts=artifacts
    )
    out = _outdir(args.out)
    if artifacts["estimate"]:
        _save(out / "estimate.npy", artifacts["estimate"])
        _save(out / "truth.npy", artifacts["truth"])
        export_support(
            out / "support.csv",
            [
                (t, sparse)
                for t, sparse in zip(artifacts["t"], artifacts["sparse"])
                if sparse is not None
            ],
        )
    if args.trace:
        write_solver_trace(out / "trace.csv", zip(artifacts["t"], artifacts["trace"]))
    write_records(out / "records.csv", records)
    for r in records:
        line = (
            f"t={r.t} variant={r.variant} snr={r.snr_db} dB "
            f"nmse={'nan' if math.isnan(r.nmse_db) else format(r.nmse_db, '.2f')} dB "
            f"rank_est={r.rank_est} rank_true={r.rank_true}"
        )
        if r.error:
            line += f" error={r.error}"
        print(line)
    if any(r.error for r in records):
        return 2
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    records = run_sweep(cfg, args.variant or DEFAULT_ABLATION)
    out = _outdir(args.out)
    write_records(out / "records.csv", records)
    report = summarize_records(records)
    write_report(out / "report.csv", report)
    print(report)
    print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_config(args) -> int:
    if args.config:
        text = json.dumps(asdict(load_config(args.config)), indent=2)
    else:
        text = dump_defaults()
    text += "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "config": _cmd_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RamcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
