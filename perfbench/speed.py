"""Machine speed, sampled while the program runs.

The benchmark's reference host is a shared VM whose speed swings between
1x and 2x its fastest within seconds, as other tenants load it. A fixed
kernel of small numpy operations, timed every PERIOD seconds from a SIGALRM
handler, slows down by the same factor as the program running around it:
interleaved with gatesynth's shift-rule gradients (4x4 and 32x32) on the
reference host, their slowdowns averaged over 1 s correlated at 0.96 to
0.975, with a slope of 0.99 to 1.05, and the ratio of the two varied by
3.5% where each alone varied by 14%.

So an interval of the program's work is measured in kernel units: its wall
time, less the kernel's own samples inside it, divided by the kernel's time
there. Times KERNEL_S, that is seconds at the reference host's full speed.
The kernel is the benchmark's own code, so a change to the program moves
only the wall time, not the correction.
"""

import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

PERIOD = 0.01
# The kernel's fastest time on the reference host (2-vCPU VM, Python 3.11.7,
# numpy 2.4.6). A fixed constant, not a per-run fastest sample: that sample
# moved by 5-8% between runs as the host's load changed, twice the spread of
# the corrected times themselves.
KERNEL_S = 0.43e-3
clock = time.monotonic

_A = np.eye(2, dtype=complex) * 0.5
_X = np.eye(4, dtype=complex)


def kernel():
    x = _X
    for _ in range(24):
        x = np.kron(_A, _A) @ x
    return x


class SpeedProbe:
    def __init__(self):
        self.at = array("d")  # start of each kernel sample
        self.took = array("d")  # its duration
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a sample that overran the period
            return
        self._busy = True
        start = clock()
        kernel()
        self.took.append(clock() - start)
        self.at.append(start)
        self._busy = False

    def start(self):
        kernel()  # warm numpy's dispatch before the first sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def quantiles(self):
        """The sample count and the kernel time at a few low quantiles and
        the median, to show how far the run's speed ranged."""
        q = (0.0, 0.01, 0.05, 0.5)
        took = np.array(self.took)
        return {"samples": len(took), **{f"q{x:g}": float(np.quantile(took, x)) for x in q}}

    def seconds(self, start, end):
        """The program's work in [start, end] in seconds at full speed: its
        wall time without the samples taken inside it, times KERNEL_S over
        their mean duration (harmonic, so each sample stands for an equal
        stretch of wall time)."""
        i, j = bisect_left(self.at, start), bisect_left(self.at, end)
        took = np.array(self.took[i:j])  # a copy: the handler may append meanwhile
        if not len(took):
            raise RuntimeError(f"no speed sample in an interval of {end - start:.3f} s")
        return (end - start - took.sum()) * float(np.mean(KERNEL_S / took))
