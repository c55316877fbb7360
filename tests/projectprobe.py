"""Subprocess probe: peak RSS that ``max_project`` adds, in KiB.

Usage: python projectprobe.py <path> <path> ...
Loads each file with ``load_image``, then projects them.  Run in a fresh
process so its peak RSS reflects this call, over the peak reached by
importing the library and loading the planes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from peakrss import peak_kib  # noqa: E402

from morphoprof import load_image, max_project  # noqa: E402


def main():
    planes = [load_image(path) for path in sys.argv[1:]]
    baseline = peak_kib()
    max_project(planes)
    print(peak_kib() - baseline)


if __name__ == "__main__":
    main()
