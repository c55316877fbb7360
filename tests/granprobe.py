"""Subprocess probe: peak RSS that one measure_granularity call adds, in KiB.

Usage: python granprobe.py <radius>
Measures a solid disk of the given radius over a seeded uniform random
plane.  Run in a fresh process so its peak RSS reflects this call, over the
peak reached by importing the library and building the inputs.  The
region is built directly rather than extracted from a label image, since
extraction's passing peak would hide the first few MiB of the call's.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from peakrss import peak_kib  # noqa: E402

from morphoprof import ImagePlane, ObjectRegion, measure_granularity  # noqa: E402


def main():
    radius = int(sys.argv[1])
    rr, cc = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    plane = ImagePlane(np.random.default_rng(0).random((2 * radius + 1,) * 2))
    region = ObjectRegion(1, (0, 0, 2 * radius, 2 * radius), rr * rr + cc * cc <= radius * radius)
    baseline = peak_kib()
    measure_granularity(region, plane)
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
