"""One benchmark child: a fresh interpreter that imports the package, runs
one workload once between two runs of the reference computation, and
prints one JSON line.

    python3 child.py SPAWN_NS MODE WORKLOAD SEED TMPDIR

SPAWN_NS is the parent's CLOCK_MONOTONIC reading (time.monotonic_ns) taken
just before it started this process, so setup_s covers interpreter start
and the import.  MODE is `setup` (import only), `plain` or `traced`.  The
package is found through PYTHONPATH, which the parent points at `src/`.
"""

import sys
import time

import comitant.cli  # noqa: F401  (the timed import: package, numpy, CLI)

SETUP_S = (time.monotonic_ns() - int(sys.argv[1])) / 1e9

import json      # noqa: E402
import os        # noqa: E402
import resource  # noqa: E402


def main() -> None:
    mode, workload, seed, tmp = sys.argv[2:6]
    seed = int(seed)
    out = {"setup_s": SETUP_S, "comitant_file": comitant.__file__}
    if mode != "setup":
        import workloads  # beside this file, which is sys.path[0]
        tracer = None
        if mode == "traced":
            import shim
            tracer = shim.install(run_id=f"{workload}:{seed}:{os.getpid()}")
        # the reference brackets the timed call, so a slow spell of the
        # machine shows in both (wall_rel, see run.end_to_end)
        before = workloads.reference()
        cpu = time.process_time()
        wall, facts = workloads.run(workload, seed, tmp)
        cpu = time.process_time() - cpu
        after = workloads.reference()
        if tracer is not None:
            tracer.dump(os.path.join(tmp, "spans.npz"))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out.update(wall_s=wall, ref_s=(before + after) / 2, facts=facts,
                   peak_rss_mib=usage.ru_maxrss / 1024, cpu_s=cpu)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
