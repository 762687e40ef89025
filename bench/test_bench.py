"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/test_bench.py

Each test runs `bench/run.py` as a subprocess, as the benchmark is run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_UNITS = {"cli-small": 2, "sweep96-70x10": 4, "hga-70x10": 1}
REPEATABLE_UNITS = {"count", "cycles", "ratio"}


def run_bench(cwd, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def checksum_of(lines):
    return next(line.split()[-1] for line in lines
                if line.startswith("# ") and line.split()[2] == "checksum")


def smoke(workload, trace):
    code, lines = run_bench(ROOT, "--workload", workload, "--seed", "3",
                            "--units", str(SMOKE_UNITS[workload]),
                            "--trace", str(trace))
    assert code == 0, lines
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result, lines


def test_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", SMOKE_UNITS)
def test_smoke_run_reports_end_to_end_metrics(workload):
    result, _ = smoke(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # a smoke run has fewer than 100 items: no percentiles
    for name in ("item_norm_p50", "item_norm_p90"):
        expected.pop(name)
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE_UNITS)
def test_traced_counts_and_checksum_repeat(workload):
    first, first_lines = smoke(workload, 1)
    second, second_lines = smoke(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: entry["unit"] for name, entry in first["metrics"].items()}
    assert got == expected

    shares = [entry["value"] for name, entry in first["metrics"].items()
              if name.endswith(".self_share")]
    assert 0 < sum(shares) <= 1

    for name, entry in first["metrics"].items():
        if entry["unit"] in REPEATABLE_UNITS:
            assert second["metrics"][name] == entry, name
    assert checksum_of(first_lines) == checksum_of(second_lines)


def test_one_command_runs_every_workload():
    code, lines = run_bench(ROOT, "--workload", "all", "--seed", "3",
                            "--units", "1")
    assert code == 0, lines
    result = result_of(lines)
    assert result["correct"]
    names = {m["name"] for m in SPEC["end_to_end"]} - {"item_norm_p50",
                                                        "item_norm_p90"}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in SMOKE_UNITS
                                      for n in names}


def test_fails_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(tmp_path, "--workload", "cli-small", "--seed", "1",
                            "--seconds", "20", "--trace", "0")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_checksum_mismatch_fails_and_names_the_workload(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (*SPEC["paths"], "src"):
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    units = SMOKE_UNITS["cli-small"]
    (tmp_path / "bench" / "checksums.json").write_text(
        json.dumps({"cli-small": {f"{units}/3": "0" * 64}}))
    code, lines = run_bench(tmp_path, "--workload", "cli-small", "--seed", "3",
                            "--units", str(units), "--trace", "0")
    assert code == 1
    assert not result_of(lines)["correct"]
    assert any("error: cli-small: output checksum differs" in line
               for line in lines)
