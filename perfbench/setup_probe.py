"""Time one set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N

The clocks start before ``import ramc`` and stop once the config is
validated and the angular dictionary is built; interpreter start-up is
not included.  ``setup_s`` is the CPU time of the calling thread
(``time.thread_time``), ``setup_wall_s`` the wall time.  ``run.py``
starts this script several times per run and reports the median CPU
time.
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import WORKLOADS, set_up


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wall, cpu = time.perf_counter(), time.thread_time()
    set_up(args.workload, args.seed)
    print(json.dumps({"setup_s": time.thread_time() - cpu,
                      "setup_wall_s": time.perf_counter() - wall}))


if __name__ == "__main__":
    main()
