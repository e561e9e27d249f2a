"""A clock that runs at a fixed reference speed of the CPU it is pinned to.

The benchmark's hosts share their cores, and a core's speed drifts by tens
of percent within seconds: a fixed Python task, timed in one-second
windows, took from 24 to 34 ms within a minute, and the two cores drift
independently.  Wall-clock time then measures the neighbours as much as
the program.

`start` pins the process (and so the CLI subprocesses it starts) to one
CPU and runs a short fixed probe every TICK_S seconds from a SIGALRM
handler, in the benchmark's own thread.  `now` advances by the real time
since the last tick times PROBE_REF_S / p, where p is the median time of
the last three probes; the probes' own time is left out.  So its seconds
are seconds at the speed at which the probe takes PROBE_REF_S, about this
host's typical speed.  The probe mixes dict updates, a sort, a scattered
read of a 64k-element list, and calls of a small Python function and of
random.randrange: the kind of work the package and the set-up do.
Interleaved this way, the drift of a 5-second window's median shrank from
15-40 % to 3-6 % on mixed dict, tuple and list work.  Without the calls,
the probe missed slow phases of call-heavy code: the set-up of
large-tables, mostly calls into `random` and `json`, read 23 % slower in
one set of ten runs than in another.

The probes go on while a CLI subprocess runs on the same CPU: the waiting
benchmark preempts it for the probe, and the probe's time is left out of
the subprocess's time too.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections import deque
from statistics import median

TICK_S = 0.05
PROBE_REF_S = 0.0011  # median probe time on the reference host (see README)

_KEYS = [(i * 7919) % 1500 for i in range(1500)]
_TABLE = [i & 255 for i in range(1 << 16)]
_GATHER = [(i * 40503) % (1 << 16) for i in range(3000)]
_COUNTS: dict[int, int] = {}
_RNG = random.Random(0)


def _step(s: int, i: int) -> int:
    return (s * 31 + i) & 1023


def probe() -> int:
    """The fixed work whose time measures the CPU's speed."""
    d = _COUNTS
    d.clear()
    for k in _KEYS:
        d[k] = d.get(k >> 1, 0) + 1
    order = sorted(_KEYS, key=d.__getitem__)
    s = 0
    for i in _GATHER:
        s += _TABLE[i]
    for i in range(400):
        s = _step(s, i)
    for _ in range(60):
        s += _RNG.randrange(1000)
    return s + order[0]


class _Clock:
    def __init__(self):
        self.acc = 0.0  # reference seconds up to `last`
        self.last = time.perf_counter()
        self.speed = 1.0  # reference seconds per real second
        self.probes: deque[float] = deque(maxlen=3)
        self.speeds: list[float] = []

    def tick(self, *_):
        now = time.perf_counter()
        self.acc += (now - self.last) * self.speed
        try:
            t0 = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - t0)
        except Exception:  # a tick must never raise into the code it interrupts
            pass
        if self.probes:
            self.speed = PROBE_REF_S / median(self.probes)
            self.speeds.append(self.speed)
        self.last = time.perf_counter()

    def now(self) -> float:
        return self.acc + (time.perf_counter() - self.last) * self.speed


_clock = _Clock()


def now() -> float:
    """Seconds at the reference speed since an arbitrary point."""
    return _clock.now()


def start() -> None:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for _ in range(3):
        _clock.tick()
    signal.signal(signal.SIGALRM, _clock.tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_quartiles() -> list[float]:
    """Quartiles of the measured speed (reference seconds per real second)."""
    s = sorted(_clock.speeds)
    if not s:
        return []
    return [s[len(s) // 4], s[len(s) // 2], s[3 * len(s) // 4]]
