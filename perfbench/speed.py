"""A speed-normalised clock for untraced repetitions.

On a shared virtual machine the speed of a virtual CPU can switch between
states far apart (measured on a 2 vCPU Xeon VM: about 1.8x, several times
a second, with no steal time), so raw wall and CPU times of the same code
spread by 30% between runs minutes apart.  This clock corrects for that.
It does not correct steal, the time the hypervisor takes the virtual CPU
away: that is in wall time but not in CPU time.

A SIGALRM timer interrupts the program every PERIOD_S.  The handler times
a fixed calibration chunk (small numpy array updates and a plain Python
loop, the same kind of work as the program's per-pipe loops) and weights
the program time since the previous tick by REF_CHUNK_S / chunk time,
averaged over the chunks at both ends of the interval.  A normalised
second is therefore a second at the speed where one chunk takes
REF_CHUNK_S.  Time spent in the handler is left out of both the raw and
the normalised readings.  The chunk is the benchmark's code, not the
program's, so a program change moves the normalised time as it moves the
raw time at a fixed speed.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.01
# Time of one chunk at the reference speed: about its time in a tight loop
# in the faster state of a 2 vCPU Xeon VM (CPython 3.11, numpy 2.4).  In
# the handler, its caches cold after program work, it takes longer, so
# there normalised seconds read 10-40% below raw seconds.
REF_CHUNK_S = 120e-6
WARMUP_CHUNKS = 50

_A = np.linspace(0.0, 1.0, 74)  # about one pipe's cells


def _step(x: float, k: int) -> float:
    return x * 0.999 + k


def chunk() -> float:
    """The calibration work: fixed, and independent of gasnetsim."""
    b = _A
    for _ in range(20):
        c = _A * 0.5 + b
        b = c[::-1] - 0.1 * _A
    acc = float(b[0])
    row = [0.0] * 16
    for i in range(400):
        acc = _step(acc, i)
        row[i & 15] = acc
    return acc


def measure() -> float:
    """Normalisation factor REF_CHUNK_S / chunk time, at this moment."""
    t0 = time.perf_counter()
    chunk()
    return REF_CHUNK_S / (time.perf_counter() - t0)


@dataclass(frozen=True)
class Reading:
    """Program time since `start`, the handler's time left out."""

    wall_s: float  # raw
    cpu_s: float
    ref_wall_s: float  # normalised
    ref_cpu_s: float


class SpeedClock:
    def __init__(self) -> None:
        self.raw_wall = self.raw_cpu = self.ref_wall = self.ref_cpu = 0.0
        self.ticks = 0
        self.factor = 1.0
        self.mark = (0.0, 0.0)

    def start(self) -> None:
        for _ in range(WARMUP_CHUNKS):
            chunk()
        self.factor = measure()
        self.mark = (time.perf_counter(), time.process_time())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Reading:
        # The handler stays installed: a tick already pending adds only
        # time after this reading.
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        return self.read()

    def _tick(self, *_) -> None:
        w, c = time.perf_counter(), time.process_time()
        factor = measure()
        mean = 0.5 * (self.factor + factor)
        dw, dc = w - self.mark[0], c - self.mark[1]
        self.raw_wall += dw
        self.raw_cpu += dc
        self.ref_wall += dw * mean
        self.ref_cpu += dc * mean
        self.factor = factor
        self.ticks += 1
        self.mark = (time.perf_counter(), time.process_time())

    def read(self) -> Reading:
        """The readings now; the open interval is weighted by the last chunk."""
        while True:
            ticks = self.ticks
            w, c = time.perf_counter(), time.process_time()
            dw, dc = w - self.mark[0], c - self.mark[1]
            reading = Reading(self.raw_wall + dw, self.raw_cpu + dc,
                              self.ref_wall + dw * self.factor,
                              self.ref_cpu + dc * self.factor)
            if ticks == self.ticks:  # no tick in between
                return reading
