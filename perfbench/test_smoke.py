"""Smoke test of the benchmark: a tiny seeded configuration, very short runs.

    python -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
no job fails, and that the gate rejects artifacts that break an inequality.
It makes no timing assertions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, workload: str, trace: int):
    argv = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_no_job_fails(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    record = json.loads(record_line)
    assert record["detail"]["failed_ratio"] == 0
    assert record["environment"]["seed"] == 7
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_gate_rejects_an_energy_below_the_oracle(tmp_path):
    cfg = workloads.generate_config("soft_coulomb", np.random.default_rng(0), tiny=True)
    (tmp_path / "heff_energies.json").write_text(json.dumps(
        {"N": cfg["projector_rank"], "energies": [-1.0, -0.5], "gap_to_exact": -1e-3}))
    with pytest.raises(workloads.GateError):
        workloads.check_project(tmp_path, cfg)
