"""Machine-speed probe for scaling time metrics on a shared machine.

On a shared 2-vCPU virtual machine, neighbouring load slows every process
in episodes that last from milliseconds to minutes, by up to 1.9x.  The
same seed then reads up to 30% apart between runs, far beyond any useful
regression bound.  The probe runs a fixed piece of 6x6 numpy work that is
independent of qqdyn but slows down like it.  Probes are interleaved with
the measured work, taking a fixed share of its time.  ``speed()`` is the
fixed ``REFERENCE_S`` over the mean probe time, and multiplying a raw time
by it scales the time to a machine on which the probe takes
``REFERENCE_S``.  The ratio of op time to probe time is what is measured;
the fastest probe, an extreme of a bimodal distribution, moved by up to
10% between runs and was no steadier a reference than a constant.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Probe time as a share of the measured time.
SHARE = 0.03
#: Probe time at the reference speed: about the fastest probe on a 2-vCPU
#: Intel Xeon virtual machine with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.5e-3

_I2 = np.eye(2, dtype=complex)
_B = (np.arange(9.0).reshape(3, 3) / 9.0).astype(complex)
_EYE6 = np.eye(6)


def probe() -> float:
    """Seconds taken by a fixed amount of small-matrix work."""
    t0 = perf_counter()
    for _ in range(20):
        m = np.kron(_I2, _B)
        np.linalg.eigvalsh(m @ m.conj().T + _EYE6)
    return perf_counter() - t0


class Probes:
    def __init__(self) -> None:
        self.times: list[float] = []
        self._debt = 0.0

    def after(self, elapsed: float) -> None:
        """Probe for ``SHARE`` of ``elapsed`` seconds of measured work."""
        self._debt += SHARE * elapsed
        while self._debt > 0.0 or not self.times:
            t = probe()
            self.times.append(t)
            self._debt -= t

    def speed(self) -> float:
        """Reference probe time over mean probe time."""
        return REFERENCE_S / statistics.fmean(self.times)
