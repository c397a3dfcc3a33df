"""Daemons, batch job streams, and periodic jobs.

These model the non-interactive load on the paper's hosts:

* :class:`Daemon` -- a process that never exits.  With ``nice=19`` it is
  conundrum's background soaker; with ``nice=0`` it is kongo's
  long-running full-priority job.
* :class:`BatchJobStream` -- jobs arriving by an arrival process with
  heavy-tailed CPU demands: the departmental compute-server workload
  (beowulf, gremlin).
* :class:`PeriodicJob` -- cron-style fixed-period work (backups, mail
  queue runs) that adds a faint periodic component.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.distributions import Distribution, Pareto

__all__ = ["Daemon", "BatchJobStream", "PeriodicJob"]


class Daemon:
    """A permanent process that occupies the CPU whenever it can.

    Parameters
    ----------
    name:
        Process name.
    nice:
        Nice level: 19 for a polite cycle-soaker, 0 for a full-priority
        long-running job.
    sys_fraction:
        System-time share of its CPU consumption.
    """

    def __init__(
        self,
        name: str,
        *,
        nice: int = 0,
        sys_fraction: float = 0.02,
    ):
        self.name = str(name)
        self.nice = int(nice)
        self.sys_fraction = float(sys_fraction)
        self.process: Process | None = None

    def start(self, kernel: Kernel, rng: np.random.Generator) -> None:
        """Spawn the daemon on ``kernel``; called by :meth:`SimHost.attach`."""
        self.process = kernel.spawn(
            Process(
                self.name,
                cpu_demand=float("inf"),
                nice=self.nice,
                sys_fraction=self.sys_fraction,
            )
        )


class BatchJobStream:
    """Jobs arriving by an arrival process, each CPU-bound with drawn demand.

    Parameters
    ----------
    user:
        Label; jobs are named ``"<user>:job"``.
    arrivals:
        Arrival process (default Poisson at one job per 10 minutes).
    demand:
        CPU-demand distribution (default Pareto(1.6, 20 s) -- mostly small
        jobs, occasional monsters, the classic batch mix).
    nice, sys_fraction:
        Scheduling attributes of spawned jobs.
    max_concurrent:
        Admission limit: arrivals beyond this many live jobs are dropped
        (real departmental servers had queue policies; this also keeps
        pathological heavy-tail draws from accumulating unbounded work).
    io_interval / io_wait:
        I/O blocking pattern of the jobs (see
        :func:`repro.workload.sessions.attach_io_pattern`); ``None``
        disables it (pure spinners).
    """

    def __init__(
        self,
        user: str,
        *,
        arrivals: ArrivalProcess | None = None,
        demand: Distribution | None = None,
        nice: int = 0,
        sys_fraction: float = 0.1,
        max_concurrent: int = 8,
        io_interval: float | None = 2.0,
        io_wait: float = 0.2,
    ):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.user = str(user)
        self.arrivals = arrivals if arrivals is not None else PoissonArrivals(1.0 / 600.0)
        self.demand = demand if demand is not None else Pareto(1.6, 20.0)
        self.nice = int(nice)
        self.sys_fraction = float(sys_fraction)
        self.max_concurrent = int(max_concurrent)
        self.io_interval = io_interval
        self.io_wait = float(io_wait)
        self._live = 0
        self.jobs_started = 0
        self.jobs_dropped = 0
        self._kernel: Kernel | None = None
        self._rng: np.random.Generator | None = None

    def start(self, kernel: Kernel, rng: np.random.Generator) -> None:
        """Attach to ``kernel``; called by :meth:`SimHost.attach`."""
        self._kernel = kernel
        self._rng = rng
        self._schedule_next()

    def _schedule_next(self) -> None:
        assert self._kernel is not None and self._rng is not None
        wait = self.arrivals.next_interarrival(self._kernel.time, self._rng)
        self._kernel.after(wait, self._arrive)

    def _arrive(self) -> None:
        assert self._kernel is not None and self._rng is not None
        if self._live >= self.max_concurrent:
            self.jobs_dropped += 1
        else:
            self._live += 1
            self.jobs_started += 1
            proc = self._kernel.spawn(
                Process(
                    f"{self.user}:job",
                    cpu_demand=self.demand.sample(self._rng),
                    nice=self.nice,
                    sys_fraction=self.sys_fraction,
                    on_done=self._job_done,
                )
            )
            if self.io_interval is not None:
                from repro.workload.sessions import attach_io_pattern

                attach_io_pattern(
                    self._kernel,
                    proc,
                    interval=self.io_interval,
                    wait=self.io_wait,
                    rng=self._rng,
                )
        self._schedule_next()

    def _job_done(self, _proc: Process) -> None:
        self._live -= 1


class PeriodicJob:
    """Fixed-period job: every ``period`` seconds, run ``demand`` CPU seconds.

    Parameters
    ----------
    name:
        Process name.
    period:
        Seconds between launches (> 0).
    demand:
        CPU seconds per run (> 0); skipped if the previous run is somehow
        still alive (real cron behaves the same with flock-guarded jobs).
    nice, sys_fraction, offset:
        Scheduling attributes and phase offset of the first run.
    """

    def __init__(
        self,
        name: str,
        *,
        period: float,
        demand: float,
        nice: int = 0,
        sys_fraction: float = 0.3,
        offset: float = 0.0,
    ):
        if period <= 0.0:
            raise ValueError(f"period must be positive, got {period}")
        if demand <= 0.0:
            raise ValueError(f"demand must be positive, got {demand}")
        if offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.name = str(name)
        self.period = float(period)
        self.demand = float(demand)
        self.nice = int(nice)
        self.sys_fraction = float(sys_fraction)
        self.offset = float(offset)
        self.runs = 0
        self._current: Process | None = None
        self._kernel: Kernel | None = None

    def start(self, kernel: Kernel, rng: np.random.Generator) -> None:
        """Attach to ``kernel``; called by :meth:`SimHost.attach`."""
        self._kernel = kernel
        kernel.after(self.offset, self._fire)

    def _fire(self) -> None:
        assert self._kernel is not None
        if self._current is None or self._current.done:
            self.runs += 1
            self._current = self._kernel.spawn(
                Process(
                    self.name,
                    cpu_demand=self.demand,
                    nice=self.nice,
                    sys_fraction=self.sys_fraction,
                )
            )
        self._kernel.after(self.period, self._fire)
