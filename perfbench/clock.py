"""A host-speed-calibrated clock for timing on a noisy shared CPU.

On a shared virtual CPU the speed available to one process drifts by
+-25% within a second and by more than 10% between runs a minute apart,
so plain wall time cannot resolve a 10% change.  This clock counts time
in units of a fixed reference kernel instead: every ``PERIOD_S`` a
``SIGALRM`` handler times ``KERNEL_LINES`` iterations of a pure-Python
loop shaped like the replay's cache walk (dict probe, list store,
integer hash), and the wall time since the previous sample is scaled by
``NOMINAL_KERNEL_S / measured kernel time``.  The time spent in the
handler itself is excluded.

One calibrated second is therefore one wall second on a host that runs
the kernel in ``NOMINAL_KERNEL_S``.  A program change that saves x% of
the work saves x% of calibrated time, whatever the host's speed while
it ran.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.04
KERNEL_LINES = 3000
#: Kernel time on the reference host (2-vCPU x86-64, CPython 3.11).
NOMINAL_KERNEL_S = 1.45e-3

_TABLE = list(range(4096))


def kernel() -> int:
    """The reference work: a small LRU-style probe/update loop."""
    index = {}
    ages = _TABLE[:]
    tick = 0
    for line in range(KERNEL_LINES):
        key = (line * 2654435761 >> 7) & 0x7FFF
        tick += 1
        slot = index.get(key)
        if slot is None:
            slot = key & 4095
            index[key] = slot
        ages[slot] = tick
    return tick


class CalibratedClock:
    """Monotonic clock in calibrated seconds while started."""

    def __init__(self) -> None:
        self.samples = 0
        self._value = 0.0
        self._last = time.perf_counter()
        self._speed = 1.0
        self._previous_handler = None

    def _sample(self) -> float:
        """Time the kernel; returns the host's speed relative to nominal."""
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples += 1
        return NOMINAL_KERNEL_S / elapsed

    def _on_alarm(self, signum, frame) -> None:
        now = time.perf_counter()
        speed = self._sample()
        # The interval ran at a speed between its two end samples.
        self._value += (now - self._last) * 0.5 * (self._speed + speed)
        self._speed = speed
        self._last = time.perf_counter()

    def now(self) -> float:
        return self._value + (time.perf_counter() - self._last) * self._speed

    def start(self) -> "CalibratedClock":
        self._speed = self._sample()
        self._last = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "CalibratedClock":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
