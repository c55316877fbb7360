"""Pin the sha256 of every workload's outputs on the default seed.

    python3 bench/pin.py

Runs one pass per workload on seed 0 and stores the output digests in
``bench/pins.json`` under the running Python, numpy and scipy versions.
Pins for other versions are kept.  Pin only a program whose outputs
are known to be right: every later pass on seed 0 with these versions
must reproduce the digests byte for byte.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

_spec = importlib.util.spec_from_file_location("bench_runner", BENCH / "bench.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)


def main() -> None:
    import workloads

    pins = json.loads(runner.PINS.read_text()) if runner.PINS.exists() else {}
    key = runner.versions_key()
    pins[key] = {}
    for workload in workloads.WORKLOADS:
        run = runner.Run(workload, runner.DEFAULT_SEED)
        result = run.execute()
        if "error" in result or not all(result["checks"].values()):
            raise SystemExit(f"{workload}: pass failed, nothing pinned: {result}")
        pins[key][workload] = runner.digests(result["dir"], run.outputs)
        run.close()
        print(f"{workload}: {pins[key][workload]}")
    runner.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
