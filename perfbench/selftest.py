"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

1. Self time: a synthetic span tree, recorded by the real shim, must give
   each span its duration minus its children's.
2. Determinism: two traced children per workload at one seed must repeat
   the deterministic counters exactly.
It also prints, per workload, the per-layer times in decreasing order, so
the layer that dominates each workload can be read off.
"""

from __future__ import annotations

import shutil
import sys
import time

import numpy as np

import shim
import workloads
from run import TMP, Runner

DETERMINISTIC = ("poly.mul.calls", "poly.mul.term_pairs", "linalg.rref.cells",
                 "fibers.census.points", "invariants.modular_hit_ratio",
                 "invariants.kernel_dim")


def check_self_time() -> None:
    tracer = shim.Tracer("selftest", poly_type=type("NoPoly", (), {}))

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.03)
        leaf_span()
        leaf_span()

    leaf_span = tracer.wrap("poly.leaf", leaf)
    tracer.wrap("linalg.outer", outer)()
    TMP.mkdir(exist_ok=True)
    path = TMP / "selftest.npz"
    tracer.dump(str(path))
    m, _ = shim.span_metrics(str(path))
    with np.load(path) as z:
        dur = (z["end"] - z["start"]) / 1e9
        parents = z["parent"].tolist()
    if parents != [-1, 0, 0]:
        raise AssertionError("span parents not recorded as a tree")
    if abs(m["linalg.self_s"] - (dur[0] - dur[1] - dur[2])) > 1e-9:
        raise AssertionError("outer self time is not duration minus children")
    if abs(m["poly.self_s"] - (dur[1] + dur[2])) > 1e-9:
        raise AssertionError("leaf self time is not its duration")
    print(f"self time: ok (outer {m['linalg.self_s']:.4f} s, "
          f"leaves {m['poly.self_s']:.4f} s)")


def check_determinism(seed: int = workloads.DEFAULT_SEED) -> int:
    bad = 0
    for name in workloads.NAMES:
        runs = [Runner(name, seed).spawn("traced")["spans"][0]
                for _ in range(2)]
        differ = [k for k in DETERMINISTIC if runs[0][k] != runs[1][k]]
        bad += len(differ)
        counts = ", ".join(f"{k}={runs[0][k]:g}" for k in DETERMINISTIC)
        verdict = f"differ: {differ}" if differ else "repeat"
        print(f"{name}: counters {verdict}: {counts}")
        times = sorted(((v, k) for k, v in runs[0].items()
                        if k.endswith(".self_s")), reverse=True)[:4]
        print("  largest self times: "
              + ", ".join(f"{k} {v:.3f} s" for v, k in times))
    return bad


def main() -> int:
    try:
        check_self_time()
        bad = check_determinism()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("selftest:", "FAILED" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
