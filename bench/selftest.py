"""The benchmark's own tests, on tiny inputs (about a minute in all).

    python3 -m pytest -q bench/selftest.py

They are kept out of the library's test suite (the file name does not
match ``test_*.py``) because they start interpreters and pool workers.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_runner", BENCH / "bench.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def test_catalogs_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == runner.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = runner.PER_LAYER if trace else runner.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert "error_rate 0 1" in lines
    if workload != "tables" and not trace:
        assert any(line.startswith("objects_per_s ") and line.endswith(" 1/s") for line in lines)
    if trace:
        spans_file = ROOT / ".bench_work" / f"trace-{workload}-3.json"
        spans = [tracing.Span(**r) for r in json.loads(spans_file.read_text())]
        assert {"replay"} <= {s.pass_id for s in spans}
        if workload != "tables":
            assert result["metrics"]["engine.batches"]["value"] >= 1
            assert {"decomposed", "w1"} <= {s.pass_id for s in spans}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_flipped_output_byte_is_a_failed_pass(tmp_path):
    run = runner.Run("many-small", seed=3, smoke=True, work=tmp_path)
    assert run.record(run.execute())
    second = run.execute()
    table = second["dir"] / "cells.csv"
    data = bytearray(table.read_bytes())
    data[len(data) // 2] ^= 0x01
    table.write_bytes(bytes(data))
    assert not run.record(second)
    assert run.attempted == 2 and len(run.good) == 1
    assert run.error_rate() == 0.5
    assert any("cells.csv sha256" in f for f in run.failures)
    result = runner._report(run, {"wall_s": 1.0}, {"wall_s": "s"}, trace=False)
    assert result["correct"] is False and result["failed"] == 1
    run.close()


def test_failed_check_is_a_failed_pass(tmp_path):
    run = runner.Run("tables", seed=3, smoke=True, work=tmp_path)
    result = run.execute()
    result["checks"]["hexes_dense_from_1"] = False
    assert not run.record(result)
    assert run.error_rate() == 1.0
    run.close()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "many-small", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_self_time_subtracts_covered_children():
    spans = [
        tracing.Span(0, "pass", 0.0, 10.0, None, "p"),
        tracing.Span(1, "a", 1.0, 4.0, 0, "p"),
        tracing.Span(2, "b", 3.0, 6.0, 0, "p"),
        tracing.Span(3, "c", 9.0, 12.0, 0, "p"),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 3.0, 2: 3.0, 3: 3.0}
    assert tracing.totals(spans)[("p", "a")] == (3.0, 1)
