"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload campus-day --seeds 1-10

Runs ``perfbench/run.py`` once per seed for ``run_seconds`` of
BENCHMARK.json, one run at a time, and prints
for each end-to-end metric its median and the distance between its
first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out FILE`` also appends every
run's result and record lines to FILE as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="'1-10' or '3,5,8'")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            if args.out:
                record = json.loads(lines[-2])["record"]
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload,
                                          "seed": seed, **result,
                                          "record": record}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            spread = quartile_spread(vals)
            worst = max(worst, spread / bounds[name])
            print(f"{workload:13s} {name:18s} "
                  f"median {statistics.median(vals):12.5g} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f} "
                  f"({spread / bounds[name]:.2f} of bound)")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
