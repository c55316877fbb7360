"""Subprocess probe: digests that numpy's SIMD dispatch might change.

Usage: python simdprobe.py <dir>
``<dir>`` holds the inputs as written by :func:`write_inputs`, built in
the calling process because the synthetic planes' Gaussian kernel goes
through ``np.exp``.  Prints one ``<name> <sha256>`` line per result:
first an ``np.arctan2`` probe over seeded inputs, then the CSV of each
family whose bytes should not depend on the dispatch.  Run it with and
without NPY_DISABLE_CPU_FEATURES to compare the two.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

import morphoprof as mp  # noqa: E402

#: Every family but texture, whose np.log2 rounds by SIMD target.
FAMILIES = ("shape", "intensity", "granularity", "radial", "coloc")


def write_inputs(spec: mp.ExperimentSpec, directory: Path) -> None:
    """Save a spec's label mask and channel planes for :func:`digests`."""
    ((_, mask),) = spec.object_sets
    np.save(directory / "mask.npy", mask.labels)
    for i, (_, plane) in enumerate(spec.channels):
        np.save(directory / f"channel{i}.npy", plane.pixels)


def digests(directory: Path) -> dict[str, str]:
    probe = np.random.default_rng(0).standard_normal((2, 10**5))
    found = {"arctan2": hashlib.sha256(np.arctan2(*probe).tobytes()).hexdigest()}
    mask = mp.LabelMask(np.load(directory / "mask.npy"))
    channels = tuple(
        (path.stem, mp.ImagePlane(np.load(path))) for path in sorted(directory.glob("channel*.npy"))
    )
    for family in FAMILIES:
        spec = mp.ExperimentSpec(channels=channels, object_sets=(("cells", mask),), families=(family,))
        (table,) = mp.run(spec)
        path = directory / f"{family}.csv"
        mp.write_table(table, path)
        found[family] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


if __name__ == "__main__":
    for name, digest in digests(Path(sys.argv[1])).items():
        print(name, digest)
