"""Subprocess probe: peak RSS that loading one raster adds, in KiB.

Usage: python loadprobe.py <image|mask> <path>
Loads the file with ``load_image`` or ``load_mask``.  Run in a fresh
process so its peak RSS reflects this call, over the peak reached by
importing the library.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from peakrss import peak_kib  # noqa: E402

from morphoprof import load_image, load_mask  # noqa: E402


def main():
    load = {"image": load_image, "mask": load_mask}[sys.argv[1]]
    baseline = peak_kib()
    load(sys.argv[2])
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
