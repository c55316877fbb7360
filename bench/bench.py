"""morphoprof benchmark: one workload, one seed, one JSON result line.

    python3 bench/bench.py --workload few-large --seed 0 --seconds 45 --trace 0

The runner writes the workload's seeded inputs under ``.bench_work/``,
times ``setup_s`` in fresh interpreters, then runs closed-loop passes,
one at a time and each in a fresh interpreter, for ``--seconds``.  Every pass is checked: its in-memory checks, and the sha256 of
its output files against the pin for the default seed (``pins.json``)
or, on other seeds, against the run's first pass.  A failed pass counts
in ``failed``/``error_rate``, its timings are dropped, and it is never
retried.

``--trace 1`` instead runs one untraced pass and one traced pass and
reports the per-layer metrics; its spans are written to
``.bench_work/trace-<workload>-<seed>.json``.  ``--smoke`` shrinks the
inputs to a second or so per pass.  The last stdout line is the JSON
result; the lines before it give every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
#: Every run, set-up included, ends well inside the 180 s it is allowed.
RUN_LIMIT_S = 170.0
#: One thread per process: the runner, one pass process and at most two
#: pool workers stay within the two cores the benchmark was sized for.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
#: Printed but not in BENCHMARK.json: ``objects_per_s`` (extraction
#: workloads) is ``wall_s`` inverted at a fixed object count, and
#: ``error_rate`` is ``failed / attempted`` of the JSON line, 0 when correct.
PRINTED = {"objects_per_s": "1/s", "error_rate": "1"}
FAMILIES = ("granularity", "shape", "texture", "radial", "intensity", "coloc")
PER_LAYER = {
    **{f"{f}.{m}": u for f in FAMILIES for m, u in (("busy_s", "s"), ("calls", "count"))},
    "core.extract_objects_s": "s",
    "core.objects": "count",
    "core.max_label": "count",
    "engine.run_w1_s": "s",
    "engine.run_w2_s": "s",
    "engine.parallel_speedup": "ratio",
    "engine.batches": "count",
    "engine.self_s": "s",
    "engine.crop_bytes": "bytes",
    "raster_io.load_image_s": "s",
    "raster_io.load_mask_s": "s",
    "raster_io.bytes_read": "bytes",
    "raster_io.write_table_s": "s",
    "raster_io.table_bytes": "bytes",
    "raster_io.read_table_s": "s",
    "raster_io.save_mask_s": "s",
    "postprocess.robust_standardize_s": "s",
    "postprocess.correlation_filter_s": "s",
    "postprocess.compare_tables_s": "s",
    "postprocess.write_report_s": "s",
    "postprocess.columns_in": "count",
    "postprocess.columns_kept": "count",
    "tessellate.hex_tessellation_s": "s",
    "tessellate.filter_by_coverage_s": "s",
    "tessellate.hexes": "count",
    "tessellate.hexes_kept": "count",
    "trace.overhead_frac": "fraction",
}


def versions_key() -> str:
    """Python, numpy and scipy versions, plus numpy's widest SIMD target:
    vectorized math can round differently from one target to another,
    so output digests are pinned per target too."""
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = ([f for f in __cpu_dispatch__ if __cpu_features__.get(f)] or ["baseline"])[-1]
    except ImportError:
        simd = "unknown"
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} simd={simd}")


def environment(seed: int) -> dict:
    """What the figures depend on besides the code."""
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": next((line.split(":", 1)[1].strip() for line in cpuinfo
                           if line.startswith("model name")), "unknown"),
        "mem_total_kib": int(next(line.split()[1] for line in meminfo
                                  if line.startswith("MemTotal"))),
        "versions": versions_key(),
        "blas_threads": CHILD_ENV,
        "seed": seed,
    }


def digests(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


class Run:
    """One benchmark run: inputs for one workload and seed, and its passes."""

    def __init__(self, workload: str, seed: int, smoke: bool = False, work: Path = WORK):
        import workloads

        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.perf_counter()
        self.dir = work / f"{workload}-{seed}{'-smoke' if smoke else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        workloads.make_inputs(workload, seed, smoke, self.dir / "in")
        self.outputs = workloads.output_names(workload)
        self.reference = self._pinned()
        self.pin_used = self.reference is not None
        self.good: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []

    def _pinned(self) -> dict[str, str] | None:
        if self.seed != DEFAULT_SEED or self.smoke or not PINS.exists():
            return None
        pins = json.loads(PINS.read_text())
        return pins.get(versions_key(), {}).get(self.workload)

    # -- child processes ---------------------------------------------------

    def _child(self, *args: str) -> tuple[int | None, str, str]:
        """Run bench/child.py in a fresh interpreter and its own session,
        so that a timeout can stop it together with its pool workers."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env={**os.environ, **CHILD_ENV}, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(remaining, 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            out, err, code = "", "timed out", None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return code, out, err

    def measure_setup(self, repeats: int = SETUP_REPEATS) -> float:
        values = []
        for _ in range(repeats):
            code, out, err = self._child("setup")
            if code != 0:
                raise RuntimeError(f"setup failed: {err.strip()}")
            values.append(json.loads(out.splitlines()[-1])["setup_s"])
        return statistics.median(values)

    def execute(self, mode: str = "pass") -> dict:
        """Run one pass in a fresh interpreter; the result is not yet checked."""
        out_dir = self.dir / f"out{self.attempted}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        self.attempted += 1
        code, _, err = self._child(mode, self.workload, str(self.dir / "in"), str(out_dir))
        result_file = out_dir / "result.json"
        if code != 0 or not result_file.exists():
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return {"dir": out_dir, "error": f"{mode} pass exited {code}: {tail[0]}"}
        result = json.loads(result_file.read_text())
        result["dir"] = out_dir
        result["mode"] = mode
        return result

    def record(self, result: dict) -> bool:
        """Check one pass; keep its timings only when every check holds."""
        problems = [result["error"]] if "error" in result else self._verify(result)
        out_dir = result.pop("dir")
        if problems:
            self.failures.extend(f"pass {out_dir.name}: {p}" for p in problems)
        else:
            self.good.append(result)
        self.spans.extend(result.pop("spans", []))
        shutil.rmtree(out_dir, ignore_errors=True)
        return not problems

    def _verify(self, result: dict) -> list[str]:
        problems = [f"check {name} failed" for name, ok in result["checks"].items() if not ok]
        got = digests(result["dir"], self.outputs)
        if self.reference is None:
            self.reference = got
        problems += [f"{name} sha256 {got[name][:12]} != expected {self.reference[name][:12]}"
                     for name in self.outputs if got[name] != self.reference.get(name)]
        if result["mode"] == "traced" and self.workload != "tables":
            # The decomposed per-object calls and run() at one and at two
            # workers must reproduce the timed pass's table byte for byte.
            twins = digests(result["dir"], ["decomposed.csv", "cells_w1.csv", "cells_w2.csv"])
            problems += [f"{name} differs from cells.csv" for name, d in twins.items()
                         if d != got["cells.csv"]]
        return problems

    # -- the two kinds of run ------------------------------------------------

    def untraced(self, seconds: float) -> dict[str, float]:
        """Passes until the next one would end after ``seconds``.

        Times are the fastest pass's: interference from other tenants of
        the host only ever slows a pass, so within a run the fastest pass
        tracks the program while the median tracks how much of the run
        landed in a slow phase (see README.md, "Spread").
        """
        began = time.perf_counter()
        while True:
            self.record(self.execute("pass"))
            spent = time.perf_counter() - began
            per_pass = spent / self.attempted
            if (spent + per_pass > seconds
                    or time.perf_counter() - self.started + 2 * per_pass > RUN_LIMIT_S):
                break
        if not self.good:
            return {}
        metrics = {
            "wall_s": min(p["wall_s"] for p in self.good),
            "cpu_s": min(p["cpu_s"] for p in self.good),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in self.good),
        }
        if self.good[0]["objects"]:
            metrics["objects_per_s"] = self.good[0]["objects"] / metrics["wall_s"]
        return metrics

    def traced(self) -> dict[str, float]:
        plain = self.execute("pass")
        self.record(plain)
        traced = self.execute("traced")
        if not self.record(traced) or "wall_s" not in plain:
            return {}
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(traced["layers"])
        layers["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        return layers

    def error_rate(self) -> float:
        return (self.attempted - len(self.good)) / self.attempted if self.attempted else 0.0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _report(run: Run, metrics: dict[str, float], units: dict[str, str], trace: bool) -> dict:
    failed = run.attempted - len(run.good)
    print(f"workload {run.workload} seed {run.seed} passes {run.attempted} failed {failed}"
          f" pin {'used' if run.pin_used else 'absent'}")
    print(f"environment {json.dumps(environment(run.seed))}")
    for problem in run.failures:
        print(f"FAILED {problem}")
    if not trace and run.good:
        walls = sorted(p["wall_s"] for p in run.good)
        print(f"passes n={len(walls)} wall_s min {walls[0]:.4f} median "
              f"{statistics.median(walls):.4f} max {walls[-1]:.4f}")
    metrics["error_rate"] = run.error_rate()
    for name, unit in {**units, **PRINTED}.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
    complete = all(name in metrics for name in units)
    return {
        "correct": failed == 0 and complete,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "morphoprof" / "__init__.py").is_file():
        print(f"bench: no morphoprof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run = Run(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            metrics, units = run.traced(), PER_LAYER
        else:
            metrics, units = run.untraced(args.seconds), END_TO_END
            metrics["setup_s"] = run.measure_setup()
        if run.spans:
            WORK.mkdir(exist_ok=True)
            spans_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps(run.spans))
            print(f"spans {len(run.spans)} written to {spans_file.relative_to(ROOT)}")
        result = _report(run, metrics, units, bool(args.trace))
    finally:
        run.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
