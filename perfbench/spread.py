"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc_tempered --seeds 1-10

Prints, per metric, the median of the runs and the distance between their
first and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json (a spread above a third of the bound is flagged).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    runs = []
    for seed in args.seeds:
        argv = [*declared["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]), "--trace", "0"]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)

    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        spread = relative_spread(values) if len(values) > 1 and median else 0.0
        bound = bounds[name]
        flag = " <-- above bound/3" if spread > bound / 3 else ""
        print(f"{name:30s} median {median:<14.6g} spread {spread:7.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
