"""Subprocess probe: peak RSS that one hex_tessellation call adds, in KiB.

Usage: python hexprobe.py <width> <height> <circumradius>
Run in a fresh process so its peak RSS reflects this call, over the peak
reached by importing the library.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from peakrss import peak_kib  # noqa: E402

from morphoprof import HexGridParams, hex_tessellation  # noqa: E402


def main():
    width, height, radius = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
    baseline = peak_kib()
    hex_tessellation(HexGridParams(width=width, height=height, circumradius=radius))
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
