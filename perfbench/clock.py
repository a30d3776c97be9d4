"""Op timing that holds still on a shared host.

The benchmark runs on a few virtual CPUs of a shared machine.  Two things
there move an op's wall time without any change to the program:

* steal: the hypervisor runs another tenant on our CPU while the op waits.
  The guest kernel counts it per CPU in ``/proc/stat``; the benchmark pins
  itself to one CPU and subtracts the steal of that CPU during the op.
* host speed: with the CPU in hand, neighbours on the same core and caches
  still make it run slower or faster, by up to 2x between runs minutes
  apart, and not by the same factor for every kind of work.  The benchmark
  times a fixed reference kernel right before and after every op and
  scales the op's time to a host on which that kernel takes its nominal
  time.  Each workload names the kernel whose time tracked its ops' times
  (``workloads.REFERENCE``): ``numeric`` (a dense Cholesky, vector math
  and a memory sweep) for the fit workloads and for interpreter start-up,
  ``mixed`` (an interpreter loop and float formatting besides smaller
  numeric work) for the toolkit, whose heaviest ops format CSV.  Over
  seven toolkit runs on a noisy host, scaling by ``mixed`` left a spread
  (IQR / median over runs) of 0.03 on the op-time metrics, by ``numeric``
  0.15, and none 0.52; on impulse-fit ``numeric`` left 0.05 and ``mixed``
  0.10.

So a timed interval reports ``(wall - steal) * nominal / reference``:
seconds on a dedicated CPU of the nominal speed.  The raw wall time, the
steal and the reference are kept beside it in every record.  The reference
is the benchmark's own code, so a change to the program moves the op time
and not the reference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_REPEATS = 3

_rng = np.random.default_rng(0)


def _spd(n):
    a = _rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


_SPD_SMALL, _SPD_LARGE = _spd(160), _spd(400)
_VECTOR_SMALL = np.linspace(0.0, 1.0, 50_000)
_VECTOR_LARGE = np.linspace(0.0, 1.0, 400_000)
_SWEEP = _rng.standard_normal(2_000_000)  # 16 MB, past the L2 cache


def _numeric():
    np.linalg.cholesky(_SPD_LARGE)
    np.exp(-_VECTOR_LARGE).sum()
    _SWEEP.sum()


def _mixed():
    x = 0.0
    for i in range(10_000):
        x += i * 0.5
    ",".join(repr(float(v)) for v in _VECTOR_SMALL[:2000])
    np.linalg.cholesky(_SPD_SMALL)
    np.exp(-_VECTOR_SMALL).sum()
    _SWEEP.sum()


# kernel and its nominal time, about its time on the machine the benchmark
# was written on (2 vCPUs of a shared x86-64 host); the nominal is only a
# scale and cancels in any ratio of two runs
KERNELS = {"numeric": (_numeric, 0.006), "mixed": (_mixed, 0.005)}

_CLOCK_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _steal_s(cpu):
    """Steal time of ``cpu`` so far, in seconds (0 where not reported)."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = line.split()
                    return int(fields[8]) / _CLOCK_TICK if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def pin_to_one_cpu():
    """Pin this process (and what it starts) to one CPU; returns its number."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Timing:
    wall_s: float
    steal_s: float
    reference_s: float
    nominal_s: float

    @property
    def seconds(self):
        """Wall time less steal, at the nominal reference speed."""
        busy = self.wall_s - min(max(self.steal_s, 0.0), self.wall_s)
        return busy * self.nominal_s / self.reference_s


class Clock:
    def __init__(self, cpu, kernel):
        self.cpu = cpu
        self.kernel = kernel
        self._run, self._nominal = KERNELS[kernel]

    def reference_s(self):
        """Fastest of a few back-to-back runs of the reference kernel."""
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            self._run()
            best = min(best, time.perf_counter() - start)
        return best

    def time(self, fn):
        """Run ``fn()``; returns its result and the interval's ``Timing``."""
        before = self.reference_s()
        steal = _steal_s(self.cpu)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        steal = _steal_s(self.cpu) - steal
        after = self.reference_s()
        return result, Timing(wall, steal, 0.5 * (before + after), self._nominal)
