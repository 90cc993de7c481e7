"""Store per-seed ``nmse_db`` references for the benchmark's accuracy guard.

Usage, from the repository root, on the commit the baseline belongs to:

    python3 perfbench/reference.py --seeds 0-39 [--workloads ablation,link]

For each workload and seed it runs one untraced sweep and stores every
``nmse_db.<variant>`` (see ``run.nmse_by_variant``) in
``perfbench/baseline.json`` under ``nmse_db_reference``.  At a stored
seed ``run.py`` fails its correctness gate when a variant's ``nmse_db``
is worse than the stored value by more than ``run.NMSE_TOL_DB``.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BASELINE_FILE, nmse_by_variant, timed_sweep
from summary import parse_seeds
from workloads import WORKLOADS, set_up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    table = {}
    for workload in args.workloads.split(","):
        variants = WORKLOADS[workload]["variants"]
        for seed in parse_seeds(args.seeds):
            cfg, _ = set_up(workload, seed)
            from ramc import harness

            *_, records = timed_sweep(harness, cfg, variants)
            nmse = nmse_by_variant(harness.summarize_records(records), variants)
            table.setdefault(workload, {})[str(seed)] = {
                name: value for name, value in nmse.items() if value is not None}
            print(workload, seed, json.dumps(nmse), flush=True)
    # Read the file only now, so that runs over other seeds may share it.
    with open(BASELINE_FILE) as fh:
        baseline = json.load(fh)
    stored = baseline.setdefault("nmse_db_reference", {})
    for workload, by_seed in table.items():
        stored.setdefault(workload, {}).update(by_seed)
    with open(BASELINE_FILE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
