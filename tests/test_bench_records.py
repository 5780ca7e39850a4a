"""Committed benchmark records.

Each `BENCH_<n>.json` at the repository root holds the last JSON line of
`python3 perfbench/run.py --trace 0` (every workload) for the parent commit
and for the change, under "parent" and "change".  The records are compared
across changes, so they may use only the workloads and the end-to-end
metric names and units that BENCHMARK.json declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_uses_the_declared_end_to_end_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"parent", "change"}
    for side in record.values():
        assert side and set(side) <= WORKLOADS
        for result in side.values():
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["metrics"]
            for name, metric in result["metrics"].items():
                assert name in UNITS
                assert metric["unit"] == UNITS[name]
                assert isinstance(metric["value"], (int, float))
