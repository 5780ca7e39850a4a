"""Benchmark driver for comitant: runs each workload in fresh interpreters,
checks every output, and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload registry --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, end-to-end table

Each measured run is a new child process (perfbench/child.py), started one
at a time from this process, so every run pays the interpreter start, the
import and the cold `lru_cache` warm-up, as a command-line user does.  With
`--trace 0` the last stdout line is one JSON object with the end-to-end
metrics; with `--trace 1` the children alternate untraced and traced, and
it carries the per-layer metrics read from the spans (see shim.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import shim
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_SPAWNS = 5        # import-only children per run, besides one warm-up
MIN_ROUNDS = {0: 3, 1: 2}
DEADLINE_S = 170        # a run must end within 180 s, whatever happens


class BenchError(RuntimeError):
    pass


def _median_quartiles(values) -> tuple:
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Runner:
    """Spawns the children of one run, one at a time, before a deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self._ids = itertools.count()

    def spawn(self, mode: str) -> dict:
        tmp = TMP / f"{os.getpid()}-{next(self._ids)}"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spawn_ns), mode,
                 self.workload, str(self.seed), str(tmp)],
                capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=timeout)
            if proc.returncode != 0 or not proc.stdout.strip():
                raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not Path(res["comitant_file"]).resolve().is_relative_to(SRC):
                raise BenchError(f"child imported {res['comitant_file']}, "
                                 f"not the package under {SRC}")
            if mode == "traced":
                res["spans"] = shim.span_metrics(str(tmp / "spans.npz"))
            res["mode"] = mode
            return res
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the run deadline") from None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Children of one run: setup samples, then rounds until `seconds`."""
    runner = Runner(workload, seed)
    runner.spawn("setup")       # discarded: writes bytecode, warms file cache
    start = time.monotonic()
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SPAWNS)]
    modes = ("plain", "traced") if trace else ("plain",)
    children: list = []
    longest = 0.0
    for rounds in itertools.count(1):
        t = time.monotonic()
        children += [runner.spawn(mode) for mode in modes]
        longest = max(longest, time.monotonic() - t)
        if (rounds >= MIN_ROUNDS[trace]
                and time.monotonic() - start + longest > seconds):
            break
    expected = json.loads((HERE / "expected.json").read_text())
    attempted = failed = 0
    for child in children:
        a, f = workloads.check(workload, seed, child["facts"], expected)
        attempted += a
        failed += f
    return {"setups": setups + [c["setup_s"] for c in children],
            "plain": [c for c in children if c["mode"] == "plain"],
            "traced": [c for c in children if c["mode"] == "traced"],
            "attempted": attempted, "failed": failed}


def end_to_end(run: dict) -> dict:
    """name -> (reported value, how it was taken) for the end-to-end metrics.

    The machine flips between a fast and a 1.4 times slower state every
    second or so as other tenants load it, and the share of slow time
    drifts over minutes, by up to half of the workload's time.  So the
    timed call is reported relative to a fixed reference computation run
    in the same child just before and just after it (wall_rel); both slow
    down together.  setup_s, short, is the fastest import (see README.md).
    """
    rels = [c["wall_s"] / c["ref_s"] for c in run["plain"]]
    walls = [c["wall_s"] for c in run["plain"]]
    setups = run["setups"]
    rss = [c["peak_rss_mib"] for c in run["plain"]]

    def spread(values) -> str:
        med, q1, q3 = _median_quartiles(values)
        return f"median {med:.6f}, q1 {q1:.6f}, q3 {q3:.6f}"

    return {
        "wall_rel": (statistics.median(rels),
                     f"median of {len(rels)}; {spread(rels)}"),
        "setup_s": (min(setups), f"best of {len(setups)}; {spread(setups)}"),
        "peak_rss_mib": (statistics.median(rss),
                         f"median of {len(rss)}; {spread(rss)}"),
        "wall_s": (statistics.median(walls),
                   f"median of {len(walls)}; {spread(walls)}; unbounded"),
    }


def per_layer(run: dict, names) -> dict:
    traced = [c["spans"][0] for c in run["traced"]]
    lookups = [x for c in run["traced"] for x in c["spans"][1]]
    pooled = {"fibers.lookup_p50_us": 50, "fibers.lookup_p95_us": 95}
    def rel(children) -> float:
        return statistics.median(c["wall_s"] / c["ref_s"] for c in children)
    values = {}
    for name in names:
        if name in pooled:
            percentiles = (statistics.quantiles(lookups, n=100)
                           if len(lookups) >= 2 else [0.0] * 99)
            values[name] = percentiles[pooled[name] - 1]
        elif name in ("proc.cpu_s", "proc.wall_s", "proc.ref_s"):
            key = name.split(".")[1]
            values[name] = statistics.median(c[key] for c in run["plain"])
        elif name == "trace.overhead_ratio":
            values[name] = rel(run["traced"]) / rel(run["plain"])
        else:
            values[name] = statistics.median(t.get(name, 0) for t in traced)
    return values


def run_one(spec: dict, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    run = measure(workload, seed, seconds, trace)
    att, fail = run["attempted"], run["failed"]
    print(f"workload {workload} seed {seed}: {len(run['plain'])} untraced "
          f"and {len(run['traced'])} traced runs, {att} operations, "
          f"{fail} failed")
    metrics = {}
    if trace:
        values = per_layer(run, [m["name"] for m in spec["per_layer"]])
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    else:
        stats = end_to_end(run)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.setdefault("wall_s", "s")
        for name, (value, how) in stats.items():
            print(f"  {name:<13} {value:12.6f} {units[name]:<5} {how}")
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": stats[m["name"]][0],
                                  "unit": m["unit"]}
    print(f"  {'fail_ratio':<13} {fail / att:12.6f} ratio ({fail}/{att})")
    return {"correct": fail == 0, "attempted": att, "failed": fail,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (BENCHMARK.json's "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "comitant" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'comitant'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(spec, w, args.seed, seconds, args.trace)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
