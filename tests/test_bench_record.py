"""``BENCH_scan.json`` records every measured performance change; each entry
must name a workload and an end-to-end metric that ``BENCHMARK.json``
defines, so that the record and the benchmark stay one vocabulary."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_entries_name_a_benchmark_workload_and_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    entries = json.loads((ROOT / "BENCH_scan.json").read_text(encoding="utf-8"))["entries"]
    assert entries
    for entry in entries:
        assert entry["workload"] in workloads, entry
        assert units.get(entry["metric"]) == entry["unit"], entry
        assert 0 <= entry["pairs_won"] <= entry["n"], entry
        for side in (entry["parent"], entry["change"]):
            if side["q1"] is not None:
                assert side["q1"] <= side["median"] <= side["q3"], entry
