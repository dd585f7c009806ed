"""Tests of the benchmark itself.

Run with: python3 -m pytest perfbench/tests -q
The smoke runs start real realchar processes and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert units(BENCH["end_to_end"]) == run.END_TO_END
    assert units(BENCH["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want
    for metric, unit in want.items():
        assert result["metrics"][metric]["value"] > 0
        assert re.search(rf"^{metric} +\S+ {unit} ", proc.stdout, re.M)
    assert re.search(r"^fail_frac +0 ratio ", proc.stdout, re.M)


def test_traced_run_accounts_for_the_wall_time():
    proc = bench("--workload", "scan_corpus", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == run.PER_LAYER
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in run.spans.LAYERS)
    wall = metrics["traced_wall_s"]["value"]
    assert abs(layer_self - wall) <= 0.01 * wall
    # classify and structure call these through their own from-import
    # bindings, so nonzero counts show those bindings were traced.
    assert metrics["structure.normal_subgroups_calls"]["value"] > 0
    assert metrics["structure.is_solvable_calls"]["value"] > 0
    assert metrics["perm.elements"]["value"] > 0


def test_corrupted_golden_fails_operations(tmp_path):
    shutil.copytree(run.GOLDEN, tmp_path, dirs_exist_ok=True)
    golden = tmp_path / "scan_corpus.txt"
    golden.write_text(golden.read_text().replace('"name":"S3"', '"name":"S4"'))
    log = []
    result = run.run_workload("scan_corpus", 0, 0.0, False, golden_dir=tmp_path, log=log.append)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert any(line.startswith("fail_frac ") and "(1 of 17 operations)" in line for line in log)


@pytest.mark.parametrize("command", [c for cs in run.WORKLOADS.values() for c in cs if not c.is_scan])
def test_table_invariants_hold_on_golden_and_catch_a_wrong_value(command):
    text = (run.GOLDEN / command.golden).read_text()
    assert checks.check_table(text, 0, text, command.expect) == []
    lines = text.splitlines()
    degree, ind, flag, values = lines[2].split()
    vals = values.split(",")
    vals[-1] = str(int(vals[-1]) + 1)
    lines[2] = " ".join((degree, ind, flag, ",".join(vals)))
    wrong = "\n".join(lines) + "\n"
    problems = checks.check_table(wrong, 0, wrong, command.expect)
    assert any("orthogonality" in p for p in problems)


def test_child_environment_drops_realchar_variables():
    env = run.child_env({"REALCHAR_CACHE_DIR": "/x", "REALCHAR_JOBS": "2", "HOME": "/h"})
    assert env == {"HOME": "/h"}


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan_corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
