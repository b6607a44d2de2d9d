"""The clock per-op latency is timed on.

The benchmark's two cores are virtual and shared: the host takes them
away for stretches of tens of microseconds at a time, and on a
sub-millisecond latency a wall clock counts those stretches as if the
program had spent them.  They made ``paced-cr-swim``'s p90 the least
steady metric of the benchmark (``METRICS.md``).

CPU time alone would miss the time the program chooses to wait: a
timer, a flush delay, a retransmission timeout.  The event loop waits
in its selector, and only there, so :class:`IdleSelector` adds up the
wall time of every blocking ``select``.  :func:`now` is process CPU
time plus that idle time: wall time less the time the process was
ready to run but held off the CPU.
"""

from __future__ import annotations

import asyncio
import selectors
import time

_cpu_ns = time.process_time_ns
_wall_ns = time.perf_counter_ns

#: Wall ns the event loop has spent blocked in its selector, summed.
_idle = [0]


class IdleSelector(selectors.DefaultSelector):
    """The platform's default selector, adding up its blocking waits.
    A poll (timeout 0) is CPU work and already in process time."""

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        start = _wall_ns()
        try:
            return super().select(timeout)
        finally:
            _idle[0] += _wall_ns() - start


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose waits :func:`now` counts."""
    return asyncio.SelectorEventLoop(IdleSelector())


def now() -> int:
    """Process CPU ns plus event-loop idle ns.  Only differences mean
    anything, and only inside a loop made by :func:`new_loop`."""
    return _cpu_ns() + _idle[0]
