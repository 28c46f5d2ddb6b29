"""The host-speed gauge that every end-to-end timing is scaled by.

The shared host runs this machine's cores faster or slower from one
millisecond to the next, and for minutes at a time the slow spells can
outweigh the fast ones: the same fixed workload's fastest repeat in a 30 s
window read 1.5 s in one window and 2.1 s three minutes later.  A fixed
stdlib kernel timed many times in the same window moves with it: its fastest
repeats set the window's speed.  So a run times the kernel between its
operations and multiplies every CPU time by ``REFERENCE_S / fastest kernel``,
which gives CPU seconds at the speed where the kernel takes ``REFERENCE_S``.

The kernel is a harmonic sum in ``Fraction``: interpreted bytecode plus
bigint gcd and products, the same mix as the package's own work.  It never
touches ``bourbaki``, and runs with the garbage collector off, so nothing the
package changes can change the kernel.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0015  # about the kernel's fastest CPU time on a 2-vCPU Xeon VM
KERNEL_TERMS = 600


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i)
    return total


class Gauge:
    """CPU times of the kernel, taken one at a time between operations."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = time.thread_time()
            _kernel()
            self.samples.append(time.thread_time() - c0)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Factor from this window's CPU seconds to CPU seconds at the
        reference speed.

        The window's fastest kernel time is read as the sample at the 5th
        percentile, not the least one: now and then the thread CPU clock
        reads a fifth of the kernel's true time.
        """
        return REFERENCE_S / sorted(self.samples)[len(self.samples) // 20]
