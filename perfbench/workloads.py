"""The benchmark workloads: what each child runs, and how the parent checks
what it got back.

`run` executes inside the fresh child interpreter and returns the wall
time of the timed call plus the facts needed to check it; `reference`,
run there just before and after it, times a fixed computation that uses
only the standard library, to tell how fast the machine was meanwhile.
`check` runs in the parent against `expected.json`, which `record.py`
writes from the seed commit, and returns (operations attempted, operations
failed).  An operation is one claim of the registry or one invariant
space.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction

DEFAULT_SEED = 0    # the program's default seed; digests are pinned at it

# (3,3,6) and (2,5,8) take the modular kernel; (2,6,6), (2,4,10) and
# (2,4,12) fall back to exact Matrix.rref.  No space is larger: no
# single exact elimination takes more than about a second, so the
# reference runs that bracket a call are close to it in time.
INVARIANT_SPACES = ((3, 3, 6), (2, 5, 8), (2, 6, 6), (2, 4, 10), (2, 4, 12))
BASIS_SIZES = [1, 2, 3, 2, 3]

NAMES = ("registry", "invariant-search")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference(n: int = 44, seed: int = 12345) -> float:
    """Seconds to bring a fixed n x (n+4) integer matrix to reduced row
    echelon form over Fraction, with the standard library only, so no
    change to comitant moves it.  About 0.5 s on a 2-vCPU x86-64 VM.

    The cyclic garbage collector is off meanwhile: it would otherwise
    traverse whatever the workload left alive, and a program that keeps
    more objects would slow its own reference.  The matrix makes no
    cycles."""
    rng = random.Random(seed)
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(n + 4)]
         for _ in range(n)]
    gc.disable()
    try:
        start = time.perf_counter()
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col])
            m[col], m[piv] = m[piv], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        return time.perf_counter() - start
    finally:
        gc.enable()


def _timed_cli(argv) -> tuple:
    from comitant import cli
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def _registry(seed: int, tmp: str) -> tuple:
    path = os.path.join(tmp, "report.json")
    # default primes and trials, as `comitant verify` runs for a user
    wall, code, _ = _timed_cli(["verify", "--seed", str(seed),
                                "--report", path])
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    # VerificationReport.canonical(): the report with every millis zeroed
    records = [dict(r, millis=0) for r in report["claims"]]
    canonical = json.dumps({"parameters": report["parameters"],
                            "claims": records}, indent=2) + "\n"
    return wall, {
        "exit_code": code,
        "canonical_sha256": _sha(canonical),
        "status": {r["claim_id"]: r["status"] for r in records},
        "claim_sha256": {r["claim_id"]: _sha(json.dumps(r, sort_keys=True))
                         for r in records},
    }


def _invariant_search() -> tuple:
    from comitant import find_invariants
    start = time.perf_counter()
    found = [find_invariants(*space) for space in INVARIANT_SPACES]
    wall = time.perf_counter() - start
    return wall, {"spaces": [
        {"size": len(basis),
         "formula_sha256": _sha("\n".join(str(d.formula) for d in basis))}
        for basis in found]}


def run(name: str, seed: int, tmp: str) -> tuple:
    """(wall seconds of the timed call, facts) for one workload."""
    if name == "registry":
        return _registry(seed, tmp)
    if name == "invariant-search":
        return _invariant_search()      # seed-free: the spaces are fixed
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# checks, in the parent


def check(name: str, seed: int, facts: dict, expected: dict) -> tuple:
    """(attempted, failed) operations for one child's facts."""
    want = expected[name]
    if name == "registry":
        return _check_registry(seed, facts, want)
    return _check_invariants(facts, want)


def _check_registry(seed, facts, want) -> tuple:
    claims = want["status"]
    wrong = {c for c in claims if facts["status"].get(c) != claims[c]}
    if seed == DEFAULT_SEED:
        wrong |= {c for c in claims
                  if facts["claim_sha256"].get(c) != want["claim_sha256"][c]}
    whole_report_wrong = (
        facts["exit_code"] != 0 or set(facts["status"]) != set(claims)
        or (seed == DEFAULT_SEED
            and facts["canonical_sha256"] != want["canonical_sha256"]))
    failed = len(wrong) or int(whole_report_wrong)
    return len(claims), failed


def _check_invariants(facts, want) -> tuple:
    failed = sum(got != exp or got["size"] != size for got, exp, size in
                 zip(facts["spaces"], want["spaces"], BASIS_SIZES))
    return len(INVARIANT_SPACES), failed
