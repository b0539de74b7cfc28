"""Host-speed reference: a fixed kernel timed in between the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, so two runs of the same code can
read 1.5x apart.  Every time metric is therefore reported in *reference
seconds*: each sample's wall time scaled by ``NOMINAL_S / reference``,
where ``reference`` is the time-weighted mean wall time of the
:func:`kernel` calls made within or next to that sample, interleaved with
the measured work (10% trimmed from each end, so a preempted call does not
count; see :meth:`HostSpeed.reference_s`).  A slower host stretches both
alike and the ratio cancels it; a slower program stretches only the
measured work.  The kernel uses nothing from the program (only the
standard library and numpy), so no change to the program can move it.  The
wall times are kept in each run's report.

The kernel mixes the two kinds of work the program does: interpreted Python
over small containers (circuit construction, transpiler passes, the
service) and small numpy array operations (state-vector simulation).
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from typing import List

import numpy as np

import stats

#: Wall time of one :func:`kernel` call that defines a reference second.
NOMINAL_S = 0.007

#: Fewest reference calls a sample is scaled by.
NEAREST = 3

_QUBITS = 10
_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASE = np.exp(1j * np.linspace(0.0, 1.0, 2**_QUBITS))


def kernel() -> float:
    """One fixed unit of interpreted-Python plus small-array work (~5 ms)."""
    table: dict = {}
    items: List[tuple] = []
    total = 0.0
    for i in range(5000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + math.cos(i * 1e-3)
        items.append((key, i))
        total += len(table)
    items.sort(key=lambda item: (-item[0][0], item[1]))
    state = np.zeros(2**_QUBITS, dtype=complex)
    state[0] = 1.0
    for _ in range(6):
        for qubit in range(_QUBITS):
            view = state.reshape(2**qubit, 2, -1)
            state = np.einsum("ab,ibj->iaj", _GATE, view).reshape(-1)
        state = state * _PHASE
    return total + float(np.abs(state).sum()) + len(items)


class HostSpeed:
    """The reference calls of one run, and the conversion of wall time to reference time."""

    def __init__(self) -> None:
        #: Wall time of every call, and the perf_counter time it ended at.
        self.samples: List[float] = []
        self.ends: List[float] = []

    def block(self, calls: int) -> None:
        """Time ``calls`` kernel calls back to back.

        The cyclic collector is off during a call: the kernel's garbage is
        freed by reference counting, and a collection it triggered would
        scan the program's heap and time that instead of the host.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(calls):
                started = time.perf_counter()
                kernel()
                ended = time.perf_counter()
                self.samples.append(ended - started)
                self.ends.append(ended)
        finally:
            if collecting:
                gc.enable()

    @property
    def spent_s(self) -> float:
        """Wall time spent in reference calls so far (to leave out of a loop's time)."""
        return sum(self.samples)

    def reference_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Trimmed-mean call time around the span ``start..end`` (default: the whole run).

        The calls that ended within the span count when there are at least
        :data:`NEAREST` of them; otherwise the :data:`NEAREST` calls that
        ended closest to the span's middle.  The host switches between two
        speeds every second or so: a short sample ran at the speed of the
        calls next to it, a long one at the mix of speeds its calls saw.
        Unlike the median, the mean follows that mix.
        """
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        if last - first < NEAREST:
            # Widen around the middle, one call at a time, to the nearer side.
            middle = (start + end) / 2.0
            last = first = bisect.bisect_left(self.ends, middle)
            while last - first < min(NEAREST, len(self.ends)):
                after = self.ends[last] - middle if last < len(self.ends) else math.inf
                before = middle - self.ends[first - 1] if first > 0 else math.inf
                if after <= before:
                    last += 1
                else:
                    first -= 1
        # Each call stands for the time since the call before it: calls
        # bunch up between short units and thin out during a long one.
        gaps = [self.ends[i] - self.ends[i - 1] if i else self.samples[0]
                for i in range(first, last)]
        return stats.trimmed_mean(self.samples[first:last], 0.1, weights=gaps)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second during ``start..end``."""
        return NOMINAL_S / self.reference_s(start, end)
