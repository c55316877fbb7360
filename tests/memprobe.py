"""Subprocess probe: run a synthetic experiment and print peak RSS in KiB.

Usage: python memprobe.py <n_objects> [size]
Run in a fresh process per configuration so its peak RSS reflects that run.
"""

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src")]

from peakrss import peak_kib  # noqa: E402
from synth import experiment  # noqa: E402

from morphoprof import run  # noqa: E402


def main():
    n_objects = int(sys.argv[1])
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 512
    spec = experiment(
        n_objects=n_objects, size=size, seed=99, workers=1, batch_size=256
    )
    tables = run(spec)
    assert tables[0].n_rows > 0
    print(peak_kib())


if __name__ == "__main__":
    main()
