"""Run-to-run spread of the end-to-end metrics, over one seed per run.

    python3 perfbench/spread.py --runs 10 [--workload registry ...] [--out FILE]

Runs `run.py --trace 0` once per seed 0..runs-1 for each workload, one run
at a time, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to a
third of the metric's bound in BENCHMARK.json.  With --out it also writes
those figures, and every value, as JSON: perfbench/baseline.json was made
this way on the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=workloads.NAMES)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w in args.workload or workloads.NAMES:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        summary[w] = {"attempted": attempted, "failed": failed, "metrics": {}}
        print(f"{w}: {args.runs} runs, {failed}/{attempted} operations failed")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            summary[w]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": share,
                "values": vals}
            print(f"  {name:<13} median {med:.6f}  q1 {q1:.6f}  q3 {q3:.6f}"
                  f"  spread {share:.4f} (bound/3 {bounds[name] / 3:.4f})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
