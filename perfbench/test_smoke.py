"""Smoke test of the benchmark itself.

Runs every workload at a tiny length, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that the counts
of two traced runs with one seed repeat exactly, and that the benchmark
refuses to run without the package.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that count work; they must repeat exactly for one seed.
EXACT_COUNTS = (
    "solver.picard.iterations",
    "solver.picard.blocks",
    "problems.rhs.calls",
    "qfracops.kernel_weights.hits",
    "qfracops.kernel_weights.misses",
    "solver.linear.series_terms",
    "qcore.calls",
    "qgrid.calls",
    "qml.calls",
    "qfracops.rl_integral.calls",
)
# Per-layer metrics each workload exercises: they must read above 0, so that
# instrumentation that stops seeing its layer fails here instead of reading
# as a gain.
EXERCISED = {
    "ops_apply": ("qfracops.rl_integral.calls", "qfracops.rl_integral.self_s",
                  "qfracops.hilfer_derivative.self_s", "qfracops.kernel_weights.hits",
                  "qfracops.kernel_weights.hit_ratio"),
    "solve_cli": ("solver.picard.iterations", "solver.picard.blocks",
                  "solver.linear.series_terms", "solver.picard_solve.self_s",
                  "solver.linear_solve.self_s", "solver.initial_term.self_s",
                  "problems.rhs.calls", "problems.rhs.self_s", "qcore.calls",
                  "qfracops.kernel_weights.misses", "cli.self_s"),
    "verify_suite": ("qml.calls", "qml.self_s", "qgrid.calls", "qgrid.self_s", "qcore.calls",
                     "qfracops.kernel_weights.misses"),
}


def _bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def _assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(_bench(workload, 0))["metrics"]
    _assert_metrics(metrics, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = _result(_bench(workload, 1))["metrics"]
    second = _result(_bench(workload, 1))["metrics"]
    _assert_metrics(first, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    exercised = [name for name in first if name.startswith("qfracops.rl_integral.q")]
    exercised += EXERCISED[workload]
    if workload == "verify_suite":
        exercised += [name for name in first if name.startswith("verify.check.")]
    for name in exercised:
        assert first[name]["value"] > 0, name
    record = json.loads((ROOT / "perfbench" / "out" /
                         f"record-{workload}-seed5-trace1.json").read_text(encoding="utf-8"))
    trace = record["trace"]
    layer_self = sum(v["self_s"] for v in trace["by_layer"].values())
    # the spans cover the traced ops; what is left is the harness's own loop
    assert layer_self > 0.9 * record["traced_wall_raw_s"]
    for key in ("platform", "cpu_count", "numpy", "blas_threads"):
        assert record["machine"][key] is not None, key
    assert record["seed"] == 5 and record["heldout_seed"] != 5


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
