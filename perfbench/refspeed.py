"""The machine's speed, read from a fixed reference kernel.

The benchmark shares two cores with other tenants, and their load
changes how fast the same Python code runs by tens of percent from one
minute to the next.  So every block of a timed window also times a
small fixed kernel (plain Python: objects, a dict, struct packing,
CRC-32; nothing from the runtime).  :func:`slowdown` turns the kernel's
CPU time into a factor by which the workloads ran slow: above 1 means
slower than nominal.  A quantity set by CPU speed is divided (a time)
or multiplied (a rate) by the factor of its block, so it reads as on
the machine at nominal speed.
"""

from __future__ import annotations

import gc
import struct
import time
import zlib

#: Kernel CPU time at nominal speed, in ns.  Only the ratio to it
#: matters, so this fixes the scale of the corrected numbers.
NOMINAL_NS = 250_000

#: The workloads slow down as this power of the kernel's slowdown.
#: When the host went from quiet to busy and the kernel slowed 2.8-fold,
#: the log-log slopes of the corrected metrics ran from 0.69 to 0.98
#: (``METRICS.md``); this value leaves each within 0.16 of it.
SENSITIVITY = 0.85

_PACK = struct.Struct("<4I")


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def kernel(rounds: int = 300) -> int:
    """Fixed work shaped like a messaging layer's: small objects, a
    dict, a short list, struct packing and a CRC."""
    table = {}
    recent = []
    acc = 0
    for i in range(rounds):
        item = _Item(i, i + 1)
        table[i] = item
        recent.append(item.total())
        data = _PACK.pack(i, i, i, i)
        acc ^= zlib.crc32(data)
        acc += sum(_PACK.unpack(data))
        if len(recent) > 16:
            recent.pop(0)
    return acc


def slowdown() -> float:
    """Time the kernel (cyclic GC held off) against nominal and return
    the workloads' slowdown factor.  A first, untimed pass warms the
    caches, so what the program left in them does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.process_time_ns()
        kernel()
        kernel_ns = time.process_time_ns() - start
        return (kernel_ns / NOMINAL_NS) ** SENSITIVITY
    finally:
        if enabled:
            gc.enable()
