"""Machine-speed gauge for the timed regions.

The host this benchmark runs on may be shared: the speed at which one core
runs the same Python code can swing by a factor of two, in phases that last
from seconds to minutes, and the process's CPU time swings with its wall
time. A time measured in one such phase cannot be compared with a time
measured in another.

:class:`SpeedGauge` samples that speed while a timed region runs. A
``SIGALRM`` interval timer interrupts the region every ``INTERVAL``
seconds and runs a fixed reference loop (:func:`reference`), whose time is
the sample. The gauge then reports the region's time *at reference
speed*: each stretch of the region between two samples is scaled by
``REFERENCE_S`` over the reference time measured at its two ends, and the
time spent in the samples themselves is left out. A change to the program
moves this time as it moves the wall time; a change of machine speed
during the run moves it much less.

The signal handler runs in the main thread between bytecodes, so a sample
due while a C call (a HiGHS solve) runs is taken when it returns; the
stretch then spans the call and is scaled by the speed at both its ends.
"""

from __future__ import annotations

from array import array
import signal
import statistics
import time

__all__ = ["INTERVAL", "REFERENCE_S", "SHORT_INTERVAL", "SpeedGauge",
           "reference"]

#: Seconds between two samples.
INTERVAL = 0.1
#: Seconds between two samples in a region shorter than a second: with
#: ``INTERVAL`` such a region gets too few samples for their noise to
#: average out.
SHORT_INTERVAL = 0.02
#: Rounds of the reference loop in one sample.
ROUNDS = 4000
#: Time of one sample on the nominal machine; a region's scaled time is in
#: seconds on a machine that runs the reference loop this fast.
REFERENCE_S = 0.003
#: The reference loop's table: 8 MB, more than a core's own caches hold.
_TABLE_BITS = 20
_TABLE = array("q", bytes(8 << _TABLE_BITS))


def reference(rounds: int = ROUNDS) -> int:
    """A fixed mix of the work the flows do in the interpreter: reads and
    writes at scattered places of a large table, small tuples, dicts and
    objects made and dropped, arithmetic and calls."""
    mask = (1 << _TABLE_BITS) - 1
    recent: list = []
    index = acc = 0
    for i in range(rounds):
        index = (index * 1103515245 + 12345) & mask
        acc = (acc + _TABLE[index] + i) & 0xFFFF
        _TABLE[index] = acc
        recent.append({"k": (i, acc), "v": [index]})
        if len(recent) > 64:
            recent.clear()
    return acc


class SpeedGauge:
    """Time a region at reference speed (see the module docstring).

    Use as a context manager; afterwards ``wall`` is the region's wall
    time without the samples, ``scaled`` its time at reference speed and
    ``samples`` the reference times, in order.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._marks: list[float] = []  # region time at each sample
        self._spent = 0.0  # time inside samples so far
        self._start = 0.0
        self._previous = None
        self._busy = False
        self.wall = 0.0
        self.scaled = 0.0

    def _sample(self, *_args) -> None:
        if self._busy:  # the timer fired again during a slow sample
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self._marks.append(t0 - self._start - self._spent)
        self.samples.append(t1 - t0)
        self._spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = self._marks[-1]
        self.scaled = scale(self._marks, self.samples)


def scale(marks: list[float], samples: list[float]) -> float:
    """Sum the stretches between ``marks``, each scaled by ``REFERENCE_S``
    over the mean reference time at its two ends.

    Each sample is first replaced by the median of three neighbouring
    samples (itself in the middle, or at either end, the first or last
    three), so one sample slowed by an interrupt does not rescale the
    stretches around it.
    """
    n = len(samples)
    smooth = []
    for i in range(n):
        lo = max(0, min(i - 1, n - 3))
        smooth.append(statistics.median(samples[lo:lo + 3]))
    total = 0.0
    for i in range(1, n):
        speed = 2.0 * REFERENCE_S / (smooth[i - 1] + smooth[i])
        total += (marks[i] - marks[i - 1]) * speed
    return total
