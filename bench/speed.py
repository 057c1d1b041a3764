"""Machine-speed normalization of the benchmark's times.

The benchmark was tuned on a shared 2-core x86_64 VM whose speed changes
under its neighbours' load: the same iteration took anywhere from 1x to 2x
its fastest time within minutes, and 30-second medians of raw wall time
moved by 20-30% between sets of runs.  A fixed reference kernel, timed in
a block right before and right after every timed piece of work, measures
the speed the machine had around that piece.  A time divided by that
speed factor is in reference seconds: the seconds the piece would have
taken with the reference kernel at REFERENCE_KERNEL_S.  The factor uses
the median kernel time, so one kernel sample caught by a brief spike does
not rescale a whole piece; on relax_long this gave a steadier wall_s than
the mean did.  The kernel
uses numpy and scipy only, so a change to cigarflow moves the measured
time and leaves the factor alone.
"""

import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

# reference-kernel time on the tuning machine at its usual speed
# (numpy 2.4, scipy 1.17); sets the scale of a reference second
REFERENCE_KERNEL_S = 0.02
SAMPLES_PER_BLOCK = 10


def reference_kernel():
    """A fixed slice of the work a cigarflow step does: a clamped cubic
    spline on 129 nodes evaluated at pulled-in nodes, plus small array
    updates."""
    s = np.linspace(0.0, 8.0, 129)
    values = np.tanh(s) - 0.3 * np.exp(-(s - 2.0) ** 2)
    pos = np.arcsinh(np.sinh(s) * 0.97)
    for _ in range(100):
        mapped = CubicSpline(s, values, bc_type=((1, 0.0), (1, 0.0)))(pos)
        slope = np.zeros_like(mapped)
        slope[1:-1] = mapped[2:] - mapped[:-2]
        values = values + 1e-6 * np.exp(-mapped) * slope
    return values


class MachineSpeed:
    """Reference-kernel blocks around a sequence of timed pieces.

    Create it right before the first piece, then call `reference_seconds`
    right after each piece with its measured time.
    """

    def __init__(self):
        self.blocks = [self._block()]

    @staticmethod
    def _block():
        samples = []
        for _ in range(SAMPLES_PER_BLOCK):
            t0 = time.perf_counter()
            reference_kernel()
            samples.append(time.perf_counter() - t0)
        return samples

    def reference_seconds(self, seconds):
        """`seconds` measured since the previous block, in reference seconds."""
        self.blocks.append(self._block())
        factor = statistics.median(self.blocks[-2] + self.blocks[-1]) / REFERENCE_KERNEL_S
        return seconds / factor

    def factor(self):
        """Speed factor over the whole run (for the printed notes)."""
        return statistics.median(sum(self.blocks, [])) / REFERENCE_KERNEL_S
