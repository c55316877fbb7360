"""Subprocess probe: peak RSS that one hex_tessellation call adds, in KiB.

Usage: python hexprobe.py <width> <height> <circumradius>
Run in a fresh process so ru_maxrss reflects this call, over the peak
reached by importing the library.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from morphoprof import HexGridParams, hex_tessellation  # noqa: E402


def main():
    width, height, radius = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
    baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    hex_tessellation(HexGridParams(width=width, height=height, circumradius=radius))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline)


if __name__ == "__main__":
    main()
