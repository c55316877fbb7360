"""Subprocess probe: peak RSS that one measure_shape call adds, in KiB.

Usage: python shapeprobe.py <radius>
Measures a solid disk of the given radius, extracted from a label image
as the engine extracts it.  Run in a fresh process so its peak RSS reflects
this call, over the peak reached by importing the library and extracting
the disk.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from peakrss import peak_kib  # noqa: E402

from morphoprof import LabelMask, extract_objects, measure_shape  # noqa: E402


def main():
    radius = int(sys.argv[1])
    rr, cc = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    (region,) = extract_objects(LabelMask((rr * rr + cc * cc <= radius * radius).astype(np.int64)))
    baseline = peak_kib()
    measure_shape(region)
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
