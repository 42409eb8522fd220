"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload sweep_train --seeds 1-10 [--seconds 35] [--trace 0]

For each metric it prints the median and the distance between the first and
third quartiles as a share of the median, the spread that BENCHMARK.json's
bounds are compared with. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}\n{last}")
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    for name, vs in values.items():
        spread = quartile_spread(vs) if len(vs) >= 2 and statistics.median(vs) else float("nan")
        print(f"{name:34s} median {statistics.median(vs):12.6g}  iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
