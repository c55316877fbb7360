"""Peak resident set size of this process, in KiB, for the memory probes.

Each probe runs in a fresh interpreter that the test process starts.
On Linux, ``ru_maxrss`` survives ``exec``, so in such a child it starts at
the test process's own peak and hides any smaller one.  The ``VmHWM``
line of ``/proc/self/status`` counts only the pages of this process
image; ``ru_maxrss`` is the fallback where that file does not exist.
"""

import resource


def peak_kib() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
