"""Repeat untraced benchmark runs over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scan --seconds 25 --seeds 101-110

Runs `run.py` once per seed, one run at a time, and prints every run's
metrics, then per metric the median and the spread: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{args.workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {json.dumps(metrics)}", flush=True)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    if last > first:
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = f"{(q3 - q1) / median:.3f}" if median else "n/a"
            print(f"  {name}: median {median:.6g}, spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
