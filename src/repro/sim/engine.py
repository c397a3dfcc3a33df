"""Event queue for the host simulator.

The kernel advances in fixed scheduling quanta; everything else --
workload arrivals, sensor reads, probe launches, process wakeups -- is a
timed callback on this queue, fired when the clock reaches its deadline.
A plain binary heap with a monotonic sequence number (stable FIFO order for
simultaneous events) is all that is needed.
"""

from __future__ import annotations

import heapq
import itertools
from math import isfinite
from typing import Callable

__all__ = ["EventQueue"]

#: Slack allowed when comparing times against the pop horizon.  The kernel
#: pops with ``now = time + 1e-9`` and schedules "immediate" events at
#: ``time`` itself (one epsilon behind the horizon), and re-derived stop
#: times can differ from the horizon by a final-rounding ulp (~1.5e-11 at
#: t = 86400); two epsilons cover both without masking real time travel.
_PAST_TOLERANCE = 2e-9


class EventQueue:
    """Min-heap of timed callbacks.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which keeps simulations deterministic.  ``n_scheduled`` counts every
    accepted event over the queue's lifetime (exported as
    ``repro_sim_events_scheduled_total``).

    The queue tracks the largest ``now`` ever passed to :meth:`pop_due`
    (its *horizon*) and rejects both non-monotonic pops and scheduling
    meaningfully into the past: either would silently fire events out of
    timestamp order, which downstream code (sensor counter differencing,
    the batch engine's fused loops) relies on never happening.
    """

    __slots__ = ("_counter", "_heap", "_horizon", "n_scheduled")

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._horizon = 0.0
        self.n_scheduled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at simulated ``time`` seconds.

        Parameters
        ----------
        time:
            Absolute simulation time; must be finite, non-negative, and
            not earlier than the latest :meth:`pop_due` horizon.  NaN,
            infinities and negative times are rejected -- NaN in
            particular would silently corrupt the heap invariant (NaN
            compares false against everything) and break FIFO ordering
            for every later event.  Times behind the pop horizon used to
            be accepted and silently fired late, out of timestamp order;
            they are now an explicit error.
        callback:
            Zero-argument callable.
        """
        time = float(time)
        if not (isfinite(time) and time >= 0.0):
            raise ValueError(
                f"event time must be finite and >= 0, got {time!r}"
            )
        if time < self._horizon - _PAST_TOLERANCE:
            raise ValueError(
                f"cannot schedule into the past: event time {time!r} is "
                f"before the pop horizon {self._horizon!r}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), callback))
        self.n_scheduled += 1

    def next_time(self) -> float:
        """Deadline of the earliest pending event, or ``inf`` if empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def pop_due(self, now: float) -> list[Callable[[], None]]:
        """Remove and return all callbacks with deadline <= ``now``.

        Returned in deadline order (FIFO within a deadline); the caller is
        responsible for invoking them.  ``now`` must be non-decreasing
        across calls (the clock never runs backwards); a lower ``now``
        raises instead of silently leaving later-deadline events to fire
        out of order.
        """
        if now < self._horizon - _PAST_TOLERANCE:
            raise ValueError(
                f"pop_due times must be non-decreasing: got {now!r} after "
                f"horizon {self._horizon!r}"
            )
        if now > self._horizon:
            self._horizon = now
        due = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        return due

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
