"""Run-to-run spread of the end-to-end metrics, scaled and raw side by side.

    python3 bench/spread.py --workload chain_lift

Runs ``bench/run.py --seconds 15`` once per seed, one run at a time, in two
sets of ten: seeds 1-10, then seeds 11-20.  For every metric and set it
prints the median and the distance between the first and third quartile as
a share of the median, as ``statistics.quantiles(values, n=4)`` gives them,
scaled and raw, and the ratio of the second set's scaled median to the
first's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_SETS = (range(1, 11), range(11, 21))
SECONDS = 15


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def run_set(workload, seeds):
    """Scaled and raw values of every metric over one set of seeds."""
    scaled: dict = {}
    raw: dict = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, m in result["metrics"].items():
            scaled.setdefault(name, []).append(m["value"])
        for name, v in detail["raw"].items():
            raw.setdefault(name, []).append(v)
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return scaled, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    sets = [run_set(args.workload, seeds) for seeds in SEED_SETS]
    print(f"{args.workload}: scaled median / spread / raw median / raw spread, "
          f"seeds {SEED_SETS[0][0]}-{SEED_SETS[0][-1]} then {SEED_SETS[1][0]}-{SEED_SETS[1][-1]}; "
          f"ratio of the scaled medians")
    for name in sets[0][0]:
        cells = []
        for scaled, raw in sets:
            med, iqr = spread(scaled[name])
            cell = f"{med:10.4f} {iqr:6.1%}"
            if name in raw:
                rmed, riqr = spread(raw[name])
                cell += f" {rmed:10.4f} {riqr:6.1%}"
            else:
                cell += " " * 18
            cells.append(cell)
        ratio = statistics.median(sets[1][0][name]) / statistics.median(sets[0][0][name])
        print(f"{name:15} | {cells[0]} | {cells[1]} | {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
