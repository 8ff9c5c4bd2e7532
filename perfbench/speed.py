"""Times at a reference speed, so runs in slow and fast phases compare.

On a shared host the same pure-Python loop can take 1x or 2x as long from
one ten-second stretch to the next (a busy hyperthread sibling, frequency
changes), which swamps any difference between two commits.  The
benchmark therefore times a fixed reference kernel between requests and
reports every time scaled to the speed at which that kernel takes
``REF_S`` seconds:

    reported = measured * REF_S / kernel time measured next to it

The kernel uses no code from the package, so no change to the package can
move it.  The raw times are printed too.
"""

import bisect
import statistics
from time import perf_counter

REF_S = 1e-3

# Exec'd both here and in the fresh interpreters that time set-up.
KERNEL_SOURCE = '''
def reference_kernel():
    from fractions import Fraction
    acc, table, s = Fraction(0), {}, 0
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        table[(i, i % 5)] = acc.numerator % 97
    for i in range(4000):
        s += i * i % 13
    return s + len(table)


def kernel_seconds(perf_counter):
    runs = []
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        runs.append(perf_counter() - t0)
    return sorted(runs)[1]
'''

_ns = {}
exec(KERNEL_SOURCE, _ns)
kernel_seconds = _ns["kernel_seconds"]


PROBE_EVERY_S = 0.1


class SpeedProbe:
    """Kernel timings taken between requests, one per PROBE_EVERY_S at most."""

    def __init__(self):
        self.times = []
        self.kernel = []

    def maybe(self):
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def probe(self):
        d = kernel_seconds(perf_counter)
        self.times.append(perf_counter())
        self.kernel.append(d)

    def factor(self, t0):
        """REF_S over the kernel time around an event that began at t0."""
        k = max(bisect.bisect_right(self.times, t0) - 1, 0)
        after = min(k + 1, len(self.times) - 1)
        return REF_S / ((self.kernel[k] + self.kernel[after]) / 2)

    def scale(self, starts, seconds):
        return [dt * self.factor(t0) for t0, dt in zip(starts, seconds)]

    def median_kernel(self):
        return statistics.median(self.kernel)
