"""Schedulable processes for the simulated Unix host.

A :class:`Process` is the unit the kernel dispatches: it has a ``nice``
level, a demand for CPU seconds (possibly infinite for daemons), a split of
its CPU consumption between user and system time (so vmstat counters can be
derived), and the decay-usage accounting state (``estcpu``) the scheduler
maintains.  Completion and wakeup notifications are plain callbacks so the
workload layer and the sensor layer can both observe process lifecycles
without subclassing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Process", "ProcessState", "NICE_MIN", "NICE_MAX"]

NICE_MIN = 0
NICE_MAX = 19


class ProcessState(enum.Enum):
    """Lifecycle states; only RUNNABLE processes occupy the run queue."""

    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    DONE = "done"


@dataclass
class Process:
    """One schedulable entity.

    Parameters
    ----------
    name:
        Human-readable label (for traces and debugging).
    cpu_demand:
        Total CPU seconds required before completion; ``float("inf")`` for
        a process that never finishes on its own (daemons, soakers).
    nice:
        Unix nice level, 0 (full priority) .. 19 (most polite).
    sys_fraction:
        Fraction of this process's CPU consumption charged as *system*
        time (kernel work done on its behalf); the rest is user time.
    on_done:
        Callback fired by the kernel when the demand is satisfied, with the
        process as argument.

    Notes
    -----
    The remaining attributes are kernel-owned accounting state; code
    outside :mod:`repro.sim` should treat them as read-only.
    """

    name: str
    cpu_demand: float = float("inf")
    nice: int = 0
    sys_fraction: float = 0.0
    on_done: Optional[Callable[["Process"], None]] = None

    # --- kernel-owned state -------------------------------------------------
    pid: int = field(default=-1)
    state: ProcessState = field(default=ProcessState.RUNNABLE)
    estcpu: float = field(default=0.0)
    cpu_time: float = field(default=0.0)
    user_time: float = field(default=0.0)
    sys_time: float = field(default=0.0)
    start_time: float = field(default=float("nan"))
    end_time: float = field(default=float("nan"))
    last_dispatch: float = field(default=-1.0)

    def __post_init__(self):
        if not NICE_MIN <= self.nice <= NICE_MAX:
            raise ValueError(
                f"nice must be in [{NICE_MIN}, {NICE_MAX}], got {self.nice}"
            )
        if not self.cpu_demand > 0.0:
            raise ValueError(f"cpu_demand must be positive, got {self.cpu_demand}")
        if not 0.0 <= self.sys_fraction <= 1.0:
            raise ValueError(
                f"sys_fraction must be in [0, 1], got {self.sys_fraction}"
            )

    @property
    def remaining(self) -> float:
        """CPU seconds still required before completion."""
        return self.cpu_demand - self.cpu_time

    @property
    def runnable(self) -> bool:
        return self.state is ProcessState.RUNNABLE

    @property
    def done(self) -> bool:
        return self.state is ProcessState.DONE

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds from start to completion (NaN until done)."""
        return self.end_time - self.start_time

    @property
    def observed_availability(self) -> float:
        """CPU share this process experienced: cpu_time / wall_time.

        This is exactly what the paper's probe and test processes report
        (``getrusage()`` CPU time over elapsed wall-clock time).  Only
        meaningful after completion.
        """
        wall = self.wall_time
        if not wall > 0.0:
            raise ValueError(f"process {self.name!r} has not completed")
        return self.cpu_time / wall
