"""Peak resident set size of one library call, measured in a fresh interpreter.

Usage: python peakrss.py <probe> <args...>
Builds the named probe's inputs, reads this process's peak, makes the one
call the probe measures and prints the peak before and after that call,
in KiB.  :func:`probe_peaks` runs it and returns the two readings.  A
probe imports nothing before its baseline but the library (and, for
``run``, the synthetic inputs), since a higher baseline would hide part
of the call's peak.

On Linux, ``ru_maxrss`` survives ``exec``, so in such a child it starts at
the test process's own peak and hides any smaller one.  The ``VmHWM``
line of ``/proc/self/status`` counts only the pages of this process
image; ``ru_maxrss`` is the fallback where that file does not exist.
"""

import resource
import sys
from pathlib import Path


def peak_kib() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe_peaks(*args, timeout=120) -> tuple[int, int]:
    """Run ``peakrss.py *args`` in a fresh interpreter: its peak before and
    after the measured call, in KiB."""
    import subprocess  # not at the top: a probe's baseline would count it

    out = subprocess.run([sys.executable, __file__, *map(str, args)],
                         capture_output=True, text=True, check=True, timeout=timeout)
    before, after = map(int, out.stdout.split())
    return before, after


def granularity(radius):
    """A solid disk over a seeded uniform random plane.  The region is built
    directly rather than extracted from a label image, since extraction's
    passing peak would hide the first few MiB of the call's."""
    import numpy as np

    import morphoprof as mp

    radius = int(radius)
    rr, cc = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    plane = mp.ImagePlane(np.random.default_rng(0).random((2 * radius + 1,) * 2))
    region = mp.ObjectRegion(1, (0, 0, 2 * radius, 2 * radius), rr * rr + cc * cc <= radius**2)
    return lambda: mp.measure_granularity(region, plane)


def shape(radius):
    """A solid disk, extracted from a label image as the engine extracts it."""
    import numpy as np

    import morphoprof as mp

    radius = int(radius)
    rr, cc = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    (region,) = mp.extract_objects(mp.LabelMask((rr * rr + cc * cc <= radius**2).astype(np.int64)))
    return lambda: mp.measure_shape(region)


def tessellation(width, height, radius):
    import morphoprof as mp

    params = mp.HexGridParams(width=int(width), height=int(height), circumradius=float(radius))
    return lambda: mp.hex_tessellation(params)


def load(kind, path):
    """``load_image`` or ``load_mask`` on one file."""
    import morphoprof as mp

    loader = {"image": mp.load_image, "mask": mp.load_mask}[kind]
    return lambda: loader(path)


def project(*paths):
    """The planes are loaded before the baseline."""
    import morphoprof as mp

    planes = [mp.load_image(path) for path in paths]
    return lambda: mp.max_project(planes)


def run(n_objects, size=512):
    """A whole synthetic experiment in one worker."""
    from synth import experiment

    import morphoprof as mp

    spec = experiment(n_objects=int(n_objects), size=int(size), seed=99, workers=1, batch_size=256)

    def call():
        assert mp.run(spec)[0].n_rows > 0

    return call


PROBES = {probe.__name__: probe for probe in (granularity, shape, tessellation, load, project, run)}

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    call = PROBES[sys.argv[1]](*sys.argv[2:])
    before = peak_kib()
    call()
    print(before, peak_kib())
