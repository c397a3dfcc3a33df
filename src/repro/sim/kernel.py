"""The simulated Unix kernel: clock, dispatch loop, and accounting.

The kernel advances simulated time and, per scheduling quantum, dispatches
the runnable process(es) chosen by the scheduling policy.  It maintains the
instrumentation the paper's sensors read:

* the **one-minute load average** -- the run-queue length sampled once per
  accounting tick, folded into an exponential moving average with a 60 s
  time constant (the classic Unix recurrence);
* **vmstat-style counters** -- cumulative user, system and idle CPU seconds
  (per-interval percentages are derived by the sensor layer by differencing);
* per-process **getrusage-style** CPU-time accounting (on the
  :class:`~repro.sim.process.Process` objects themselves).

Performance: a fast *fluid* path covers the common cases (no contention, or
fewer runnable processes than CPUs) by charging whole sub-tick spans at
once; only genuinely contended stretches fall back to quantum-by-quantum
dispatch.  A 24-hour single-CPU day with a realistic workload simulates in
a couple of seconds (profiled; see the hpc-parallel guide's
measure-don't-guess rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Callable

from repro.sim.engine import EventQueue
from repro.sim.process import Process, ProcessState
from repro.sim.scheduler import DecayUsageScheduler, Scheduler

__all__ = ["Kernel", "KernelConfig"]

_EPS = 1e-9


@dataclass(frozen=True)
class KernelConfig:
    """Static kernel parameters.

    Attributes
    ----------
    quantum:
        Scheduling quantum in seconds (default 0.1, ten dispatches per
        second, as in classic BSD with hz=100 and a 10-tick quantum).
    tick:
        Accounting period in seconds: load-average sampling and estcpu
        decay happen once per tick (default 1.0).
    loadavg_tau:
        Time constant of the load-average EWMA in seconds (default 60.0,
        the "one-minute" load average).
    ncpu:
        Number of identical CPUs (default 1; >1 enables the shared-memory
        multiprocessor mode flagged as future work in the paper).
    """

    quantum: float = 0.1
    tick: float = 1.0
    loadavg_tau: float = 60.0
    ncpu: int = 1

    def __post_init__(self):
        if self.quantum <= 0.0:
            raise ValueError(f"quantum must be positive, got {self.quantum}")
        if self.tick < self.quantum:
            raise ValueError("tick must be >= quantum")
        if self.loadavg_tau <= 0.0:
            raise ValueError(f"loadavg_tau must be positive, got {self.loadavg_tau}")
        if self.ncpu < 1:
            raise ValueError(f"ncpu must be >= 1, got {self.ncpu}")


class Kernel:
    """A simulated time-shared Unix machine.

    Parameters
    ----------
    config:
        :class:`KernelConfig`; defaults are the paper-faithful settings.
    scheduler:
        Scheduling policy; defaults to a fresh
        :class:`~repro.sim.scheduler.DecayUsageScheduler`.

    Notes
    -----
    Time starts at 0.0.  Drive the machine with :meth:`run_until`; attach
    work with :meth:`spawn` and timed callbacks with :meth:`at`.  Sensors
    subscribe per-tick state via :meth:`on_tick`.
    """

    def __init__(
        self,
        config: KernelConfig | None = None,
        scheduler: Scheduler | None = None,
    ):
        self.config = config if config is not None else KernelConfig()
        self.scheduler = scheduler if scheduler is not None else DecayUsageScheduler()
        self.events = EventQueue()
        self.time = 0.0
        self.load_average = 0.0
        # Cumulative CPU-time accounting (vmstat reads these by differencing).
        self.cum_user = 0.0
        self.cum_sys = 0.0
        self.cum_idle = 0.0
        # Integral of run-queue length over time: differencing this gives
        # the interval-averaged number of runnable processes, which is what
        # vmstat's "r" column effectively reports.
        self.cum_nrun_time = 0.0
        # Always-on tallies for the observability layer (plain ints; the
        # registry reads them at snapshot time via
        # repro.obs.instrument.observe_kernel, so the dispatch loop never
        # touches a metrics handle).
        self.n_events_fired = 0
        self.n_dispatches = 0
        self.n_ticks = 0
        self.n_spawned = 0
        self.n_completed = 0
        self._live: list[Process] = []
        self._next_pid = 1
        self._next_tick = self.config.tick
        self._tick_decay = exp(-self.config.tick / self.config.loadavg_tau)
        self._tick_listeners: list[Callable[[Kernel], None]] = []

    # ------------------------------------------------------------------ API

    @property
    def processes(self) -> list[Process]:
        """Live (non-DONE) processes, in spawn order."""
        return list(self._live)

    @property
    def run_queue_length(self) -> int:
        """Number of currently runnable processes (the quantity ``uptime``
        smooths into load average)."""
        return sum(1 for p in self._live if p.state is ProcessState.RUNNABLE)

    def spawn(self, process: Process) -> Process:
        """Admit ``process`` to the machine, runnable immediately."""
        if process.pid != -1:
            raise ValueError(f"process {process.name!r} was already spawned")
        process.pid = self._next_pid
        self._next_pid += 1
        process.start_time = self.time
        process.state = ProcessState.RUNNABLE
        self._live.append(process)
        self.n_spawned += 1
        return process

    def sleep(self, process: Process, duration: float) -> None:
        """Put ``process`` to sleep for ``duration`` seconds.

        Sleeping processes leave the run queue (load average no longer
        counts them) but keep decaying their ``estcpu``, so they return at
        an improved priority -- the essence of interactive-process boosting.
        """
        if process.state is not ProcessState.RUNNABLE:
            raise ValueError(f"cannot sleep process in state {process.state}")
        if duration <= 0.0:
            raise ValueError(f"sleep duration must be positive, got {duration}")
        process.state = ProcessState.SLEEPING
        slept_from = self.time

        def wake():
            if process.state is ProcessState.SLEEPING:
                process.state = ProcessState.RUNNABLE
                self.scheduler.on_wake(process, self.time - slept_from)

        self.events.schedule(self.time + duration, wake)

    def kill(self, process: Process) -> None:
        """Terminate ``process`` immediately (no completion callback)."""
        if process.state is ProcessState.DONE:
            return
        process.state = ProcessState.DONE
        process.end_time = self.time
        self._live.remove(process)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``.

        Events in the past (or at the current instant) fire on the next
        dispatch iteration.
        """
        self.events.schedule(max(time, self.time), callback)

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.events.schedule(self.time + delay, callback)

    def on_tick(self, listener: Callable[[Kernel], None]) -> None:
        """Register a per-accounting-tick observer (sensors, tracers)."""
        self._tick_listeners.append(listener)

    # ------------------------------------------------------------- dispatch

    def _complete(self, process: Process, at_time: float) -> None:
        process.state = ProcessState.DONE
        process.end_time = at_time
        self._live.remove(process)
        self.n_completed += 1
        if process.on_done is not None:
            process.on_done(process)

    def _charge_run(self, process: Process, cpu_seconds: float) -> None:
        process.charge(cpu_seconds)
        self.scheduler.charge(process, cpu_seconds)
        sys_part = cpu_seconds * process.sys_fraction
        self.cum_sys += sys_part
        self.cum_user += cpu_seconds - sys_part

    def _tick(self) -> None:
        """Per-second accounting: load average, decay, listeners."""
        n = self.run_queue_length
        decay = self._tick_decay
        self.load_average = self.load_average * decay + n * (1.0 - decay)
        self.n_ticks += 1
        self.scheduler.decay(self._live, self.load_average)
        for listener in self._tick_listeners:
            listener(self)

    def run_until(self, t_end: float) -> None:
        """Advance the machine to absolute time ``t_end``.

        Fires events, dispatches processes, performs per-tick accounting.
        Safe to call repeatedly with increasing deadlines.
        """
        t_end = float(t_end)
        if t_end < self.time - _EPS:
            raise ValueError(
                f"cannot run backwards: now={self.time}, requested {t_end}"
            )
        quantum = self.config.quantum
        ncpu = self.config.ncpu

        while self.time < t_end - _EPS:
            # 1. Fire everything due at (or before) the current instant.
            due = self.events.pop_due(self.time + _EPS)
            self.n_events_fired += len(due)
            for callback in due:
                callback()

            # 2. Run accounting ticks whose boundary we have reached.
            while self._next_tick <= self.time + _EPS:
                self._tick()
                self._next_tick += self.config.tick

            # 3. Advance to the next interesting instant.  After steps 1-2,
            #    both the next event and the next tick lie strictly in the
            #    future, so span > 0 and the loop always makes progress.
            stop = min(t_end, self._next_tick, self.events.next_time())
            span = stop - self.time
            if span <= _EPS:  # pragma: no cover - defensive
                self.time = stop
                continue

            runnable = [p for p in self._live if p.state is ProcessState.RUNNABLE]

            if not runnable:
                self.cum_idle += span * ncpu
                self.time += span
            elif len(runnable) <= ncpu:
                # Fluid path: everyone runs at full speed; stop early if
                # someone completes inside the span.
                dur = span
                for p in runnable:
                    if p.remaining < dur:
                        dur = p.remaining
                dur = max(dur, _EPS)
                now = self.time
                for p in runnable:
                    run = min(dur, p.remaining)
                    self._charge_run(p, run)
                    p.last_dispatch = now
                    if p.remaining <= _EPS:
                        self._complete(p, now + run)
                self.cum_idle += (ncpu - len(runnable)) * dur
                self.cum_nrun_time += len(runnable) * dur
                self.time = now + dur
            else:
                # Contended: quantum-by-quantum dispatch.
                dur = min(quantum, span)
                now = self.time
                chosen: list[Process] = []
                pool = runnable
                for _ in range(min(ncpu, len(pool))):
                    pick = self.scheduler.pick(pool, now)
                    chosen.append(pick)
                    pool = [p for p in pool if p is not pick]
                used = 0.0
                self.n_dispatches += len(chosen)
                for p in chosen:
                    run = min(dur, p.remaining)
                    self._charge_run(p, run)
                    p.last_dispatch = now
                    used += run
                    if p.remaining <= _EPS:
                        self._complete(p, now + run)
                self.cum_idle += dur * ncpu - used
                self.cum_nrun_time += len(runnable) * dur
                self.time = now + dur

        # Final boundary: ticks landing exactly on t_end.
        while self._next_tick <= self.time + _EPS:
            self._tick()
            self._next_tick += self.config.tick
        due = self.events.pop_due(self.time + _EPS)
        self.n_events_fired += len(due)
        for callback in due:
            callback()
