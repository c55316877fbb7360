"""Run bench.py over several seeds and report each metric's spread.

    python3 bench/sweep.py --workloads many-small few-large tables --seeds 1-10
    python3 bench/sweep.py --seeds 1-10 --traced --out bench/BENCH_1.json

For every workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``--traced``
adds one traced run per workload on the first seed.  ``--out`` writes
the environment, every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], time.perf_counter() - began


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs, environment = [], None
        for seed in args.seeds:
            result, lines, took = bench(workload, seed, args.seconds, 0)
            environment = next(json.loads(line.split(" ", 1)[1]) for line in lines
                               if line.startswith("environment "))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "run_s": took, **values})
            print(f"{workload} seed {seed} run {took:.1f} s passes {result['attempted']} "
                  f"failed {result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, iqr = spread([r[name] for r in runs])
            summary[name] = {"median": med, "spread": iqr, "bound": bound}
            print(f"  {workload} {name}: median {med:.4g} spread {iqr:.2%} "
                  f"(bound {bound:.0%}, a third {bound / 3:.2%})", flush=True)
        entry = {"environment": environment, "runs": runs, "summary": summary}
        if args.traced:
            result, _, took = bench(workload, args.seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": args.seeds[0], "run_s": took,
                               **{k: v["value"] for k, v in result["metrics"].items()}}
            print(f"  {workload} traced run {took:.1f} s", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
