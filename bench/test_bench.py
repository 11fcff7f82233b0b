"""The benchmark's own tests: tiny smoke runs, report schema, and proof that
corrupted outputs are counted as failures.

    python3 -m pytest -q bench/test_bench.py

Each run uses ``--tiny`` (seconds-long sizes, invariant checks only).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_outputs(workload: str, work: Path) -> Path:
    config = run.make_config(workload, 2, tiny=True)
    (work / "config.json").write_text(json.dumps(config))
    out = work / "iter"
    out.mkdir()
    procs = run.execute_processes(run.make_jobs(workload, config, work, out,
                                                trace=False, setup_only=False))
    assert [p["rc"] for p in procs] == [0] * len(procs)
    return out


def _corrupt(workload: str, out: Path) -> None:
    """Break an invariant the check must catch without any pinned reference."""
    if workload == "cli-default":
        path = out / "evolve_summary.json"
        summary = json.loads(path.read_text())
        summary["runs"][0]["trace"] = 1.5
        path.write_text(json.dumps(summary))
    elif workload == "density-large":
        path = out / "observables.json"
        observables = json.loads(path.read_text())
        observables[-1]["purity"] = 0.5
        path.write_text(json.dumps(observables))
    else:
        path = out / "oracle_amplitudes.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[3] = "1.1"
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checks_reject_corrupted_outputs(workload, tmp_path):
    out = _tiny_outputs(workload, tmp_path)
    golden = run.make_golden(workload, out)
    assert run.CHECKS[workload](out, None) == []
    assert run.CHECKS[workload](out, golden) == []
    _corrupt(workload, out)
    assert run.CHECKS[workload](out, None)
    assert run.CHECKS[workload](out, golden)


def test_pinned_digests_catch_a_single_changed_byte(tmp_path):
    out = _tiny_outputs("cli-default", tmp_path)
    golden = run.make_golden("cli-default", out)
    path = out / "decoherence_factor.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    problems = run.CHECKS["cli-default"](out, golden)
    assert problems == ["decoherence_factor.csv: SHA-256 differs from the "
                        "pinned digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_iteration_counts_as_failed(workload, monkeypatch):
    real = run.execute_processes

    def execute_then_corrupt(jobs):
        procs = real(jobs)
        _corrupt(workload, Path(jobs[0]["out"]))
        return procs

    monkeypatch.setattr(run, "execute_processes", execute_then_corrupt)
    result = run.run_workload(workload, seed=2, seconds=0, trace=False,
                              tiny=True, golden=None)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert _last_json(run.final_line(result))["correct"] is False


def test_missing_wrapped_name_stops_the_process():
    with pytest.raises(SystemExit) as exc:
        child.Tracer().wrap(types.SimpleNamespace(), "scenario_sweep", "x")
    assert exc.value.code == child.WRAP_FAILED


def test_layer_that_saw_no_calls_stops_the_run(tmp_path):
    report = {"layers": {}, "values": {}, "counts": {}, "import_s": 0.5,
              "main_start": 1.0, "main_end": 2.0, "self_s": 1.0}
    procs = [{"job": {"kind": "density"}, "report": report,
              "launch": 0.0, "end": 2.1}]
    with pytest.raises(run.BenchError, match="no calls"):
        run.layer_metrics("density-large", procs, tmp_path)
