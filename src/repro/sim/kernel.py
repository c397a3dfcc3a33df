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

One loop, :meth:`Kernel.run_until`, advances every host on the live
objects: processes, the scheduler and every callback are read, written
and called in place.  It fuses the stretches between callbacks: the clock
and counters (:data:`_CLOCK`) live in locals, decay-usage charge, pick
and decay are inlined (any other policy is called through its methods),
and *cruises* fuse ticks and spans while no process, one, or (on one CPU
under decay-usage) two are runnable.  Every floating-point accumulation
keeps the operation order of the plain event loop in
``tests/sim_reference.py``; the parity tests compare the two byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf
from operator import attrgetter
from typing import Callable

from repro.sim.engine import EventQueue
from repro.sim.process import Process, ProcessState
from repro.sim.scheduler import DecayUsageScheduler, Scheduler

__all__ = ["Kernel", "KernelConfig"]

_EPS = 1e-9

_RUNNABLE = ProcessState.RUNNABLE

#: Kernel fields the dispatch loop keeps in locals between callbacks, in the
#: order of its clock tuples.
_CLOCK = (
    "time",
    "load_average",
    "cum_user",
    "cum_sys",
    "cum_idle",
    "cum_nrun_time",
    "n_ticks",
    "n_dispatches",
    "_next_tick",
)
_load_clock = attrgetter(*_CLOCK)

#: The decay-usage constants the loop inlines.
_du_constants = attrgetter(
    "charge_rate", "estcpu_divisor", "nice_weight", "estcpu_cap"
)

#: A runner's values a cruise holds in locals.
_runner = attrgetter(
    "cpu_demand",
    "sys_fraction",
    "cpu_time",
    "user_time",
    "sys_time",
    "last_dispatch",
    "estcpu",
)


def _store_runner(
    p: Process, cpu: float, usr: float, sys: float, last: float, estcpu: float
) -> None:
    """Write one runner's cruise locals back to the process.

    The two-runner cruise's write-back; the one-runner cruise, which runs
    far more callbacks, writes its runner inline.
    """
    p.cpu_time = cpu
    p.user_time = usr
    p.sys_time = sys
    p.last_dispatch = last
    p.estcpu = estcpu


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

    def _tick(self) -> None:
        """Per-second accounting: load average, decay, listeners."""
        n = self.run_queue_length
        decay = self._tick_decay
        self.load_average = self.load_average * decay + n * (1.0 - decay)
        self.n_ticks += 1
        self.scheduler.decay(self._live, self.load_average)
        for listener in self._tick_listeners:
            listener(self)

    def _store_clock(self, clock: tuple) -> None:
        # Spelled out rather than looped over _CLOCK: attribute stores by
        # name are several times faster.  run_until's ``fire`` stores the
        # clock the same way inline, before every event batch.
        (
            self.time,
            self.load_average,
            self.cum_user,
            self.cum_sys,
            self.cum_idle,
            self.cum_nrun_time,
            self.n_ticks,
            self.n_dispatches,
            self._next_tick,
        ) = clock

    def _dispatch_state(self, runnable: list[Process] | None = None) -> tuple:
        """The run queue, the scheduler and its inlined decay-usage constants.

        Recomputed after any callback, which may wake, sleep, spawn or kill
        processes or swap the scheduler (pass ``runnable`` if it is already
        fresh).  ``is_du`` is false for every other policy (subclasses
        included), which the loop then drives through its methods.
        """
        if runnable is None:
            runnable = [p for p in self._live if p.state is _RUNNABLE]
        sched = self.scheduler
        if type(sched) is DecayUsageScheduler:
            return (runnable, sched, True, *_du_constants(sched))
        return runnable, sched, False, 0.0, 1.0, 0.0, 0.0

    def run_until(self, t_end: float) -> None:
        """Advance the machine to absolute time ``t_end``.

        Fires events, dispatches processes, performs per-tick accounting.
        Safe to call repeatedly with increasing deadlines.  Each instant
        runs in one order: the events due, then the ticks due, then a span
        of dispatch to the next tick, event or ``t_end``; ticks and then
        events landing on ``t_end`` itself run before returning.
        """
        t_end = float(t_end)
        if t_end < self.time - _EPS:
            raise ValueError(
                f"cannot run backwards: now={self.time}, requested {t_end}"
            )

        eps = _EPS
        config = self.config
        ncpu = config.ncpu
        quantum = config.quantum
        tick_len = config.tick
        tick_decay = self._tick_decay
        om_decay = 1.0 - tick_decay  # hoisted pure recomputation; same bits
        two_om = 2 * om_decay
        spare = ncpu - 1  # idle CPUs beside a single runner
        events = self.events
        live = self._live
        tick_listeners = self._tick_listeners
        store_clock = self._store_clock

        def fire(due: list, clock: tuple) -> tuple:
            """Run a popped batch with ``clock`` stored; the clock after it."""
            self.n_events_fired += len(due)
            # _store_clock inlined: this runs before every callback.
            (
                self.time,
                self.load_average,
                self.cum_user,
                self.cum_sys,
                self.cum_idle,
                self.cum_nrun_time,
                self.n_ticks,
                self.n_dispatches,
                self._next_tick,
            ) = clock
            for callback in due:
                callback()
            return _load_clock(self)

        (
            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
            n_ticks, n_dispatches, next_tick,
        ) = _load_clock(self)
        runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
            self._dispatch_state()
        )
        next_event = events.next_time()
        t_stop = t_end - eps
        # Set when a cruise fired the batch due at ``time`` and left the
        # instant's ticks to step 2.
        fired = False
        while True:
            # 1. Fire everything due at the current instant.  A batch in
            #    [t_end - eps, t_end) waits for the trailing fire, after the
            #    boundary ticks.
            if fired:
                fired = False
            elif time < t_stop and next_event <= time + eps:
                (
                    time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                    n_ticks, n_dispatches, next_tick,
                ) = fire(events.pop_due(time + eps), (
                    time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                    n_ticks, n_dispatches, next_tick,
                ))
                next_event = events.next_time()
                runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                    self._dispatch_state()
                )

            # 2. Accounting ticks whose boundary we have reached (_tick).
            while next_tick <= time + eps:
                if tick_listeners:
                    store_clock((
                        time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                        n_ticks, n_dispatches, next_tick,
                    ))
                    self._tick()
                    (
                        time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                        n_ticks, n_dispatches, next_tick,
                    ) = _load_clock(self)
                    runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                        self._dispatch_state()
                    )
                    next_event = events.next_time()
                else:
                    la = la * tick_decay + len(runnable) * om_decay
                    n_ticks += 1
                    if is_du:
                        load = la if la > 0.0 else 0.0
                        load2 = 2.0 * load
                        factor = load2 / (load2 + 1.0)
                        sched._last_decay_factor = factor
                        for p in live:
                            p.estcpu *= factor
                    else:
                        sched.decay(live, la)
                next_tick += tick_len
            if time >= t_stop:
                break

            # 3. Cruises.  While the run queue holds no process, one, or (on
            #    one CPU under decay-usage) two, a fused loop runs with the
            #    runners' floats in locals.  Each iteration is (events, ticks,
            #    span) in that order.  Before a batch fires, the locals are
            #    written back; after it, the cruise goes on only if the run
            #    queue holds the same processes in the same order, the
            #    scheduler is the same object and no tick listener exists,
            #    and then reloads every runner value, which a callback may
            #    have changed.  Otherwise the instant's ticks go to step 2.
            #    A span in which a runner would complete ends the cruise, and
            #    step 4 takes that span.
            n_r = len(runnable)
            general = False
            if tick_listeners:
                general = True
            elif n_r == 0:
                boundary = next_event if next_event < t_end else t_end
                while time < t_stop:
                    te = time + eps
                    if next_event <= te:
                        (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ) = fire(events.pop_due(te), (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ))
                        next_event = events.next_time()
                        runnable = [p for p in live if p.state is _RUNNABLE]
                        if runnable or self.scheduler is not sched or tick_listeners:
                            runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                                self._dispatch_state(runnable)
                            )
                            fired = True
                            break
                        boundary = next_event if next_event < t_end else t_end
                    while next_tick <= te:
                        # Empty run queue: the EWMA's n*(1-decay) term is +0.0,
                        # a bit-exact no-op on la >= 0.
                        la = la * tick_decay
                        n_ticks += 1
                        if is_du:
                            load = la if la > 0.0 else 0.0
                            load2 = 2.0 * load
                            factor = load2 / (load2 + 1.0)
                            sched._last_decay_factor = factor
                            for p in live:
                                p.estcpu *= factor
                        else:
                            sched.decay(live, la)
                        next_tick += tick_len
                    stop = next_tick if next_tick < boundary else boundary
                    span = stop - time
                    if span <= eps:
                        time = stop
                        continue
                    cum_idle += span * ncpu
                    time += span
            elif n_r == 1:
                p0 = runnable[0]
                dem0, f0, cpu0, usr0, sys0, last0, e0 = _runner(p0)
                finite0 = dem0 != inf
                factor = sched._last_decay_factor if is_du else 0.0
                others = [p for p in live if p is not p0]
                boundary = next_event if next_event < t_end else t_end
                while time < t_stop:
                    te = time + eps
                    if next_event <= te:
                        p0.cpu_time = cpu0
                        p0.user_time = usr0
                        p0.sys_time = sys0
                        p0.last_dispatch = last0
                        if is_du:
                            p0.estcpu = e0
                            sched._last_decay_factor = factor
                        (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ) = fire(events.pop_due(te), (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ))
                        next_event = events.next_time()
                        runnable = [p for p in live if p.state is _RUNNABLE]
                        if (
                            len(runnable) != 1
                            or runnable[0] is not p0
                            or self.scheduler is not sched
                            or tick_listeners
                        ):
                            runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                                self._dispatch_state(runnable)
                            )
                            fired = True
                            break
                        if is_du:
                            du_rate, du_div, du_weight, du_cap = _du_constants(sched)
                        dem0, f0, cpu0, usr0, sys0, last0, e0 = _runner(p0)
                        finite0 = dem0 != inf
                        factor = sched._last_decay_factor if is_du else 0.0
                        others = [p for p in live if p is not p0]
                        boundary = next_event if next_event < t_end else t_end
                    while next_tick <= te:
                        # One runnable: the EWMA term is 1*(1-decay) > 0, so the
                        # decay factor needs no clamp.
                        la = la * tick_decay + om_decay
                        n_ticks += 1
                        if is_du:
                            load2 = 2.0 * la
                            factor = load2 / (load2 + 1.0)
                            e0 *= factor
                            if others:
                                for p in others:
                                    p.estcpu *= factor
                        else:
                            sched.decay(live, la)
                        next_tick += tick_len
                    stop = next_tick if next_tick < boundary else boundary
                    span = stop - time
                    if span <= eps:
                        time = stop
                        continue
                    if finite0 and (
                        dem0 - cpu0 < span or dem0 - (cpu0 + span) <= eps
                    ):
                        general = True
                        break
                    cpu0 += span
                    sp = span * f0
                    su = span - sp
                    sys0 += sp
                    usr0 += su
                    if is_du:
                        e = e0 + du_rate * span
                        e0 = du_cap if e > du_cap else e
                    else:
                        # Other policies see the process as charged so far,
                        # as they do in step 4.
                        p0.cpu_time = cpu0
                        p0.user_time = usr0
                        p0.sys_time = sys0
                        sched.charge(p0, span)
                        p0.last_dispatch = time
                    cum_sys += sp
                    cum_user += su
                    last0 = time
                    if spare:
                        cum_idle += spare * span
                    cum_nrun += span  # 1*span is exact
                    time += span
                if not fired:
                    p0.cpu_time = cpu0
                    p0.user_time = usr0
                    p0.sys_time = sys0
                    p0.last_dispatch = last0
                    if is_du:
                        p0.estcpu = e0
                        sched._last_decay_factor = factor
            elif n_r == 2 and ncpu == 1 and is_du:
                # Typically a probe or test process against one job:
                # quantum-by-quantum dispatch between two processes.  Whoever
                # runs takes the full quantum (a shorter run means
                # completion, which goes to step 4), so the idle charge is an
                # exact +0.0 no-op.
                pa, pb = runnable
                dem_a, f_a, cpu_a, usr_a, sys_a, last_a, e_a = _runner(pa)
                dem_b, f_b, cpu_b, usr_b, sys_b, last_b, e_b = _runner(pb)
                finite = dem_a != inf or dem_b != inf
                n2a = du_weight * pa.nice
                n2b = du_weight * pb.nice
                factor = sched._last_decay_factor
                others = [p for p in live if p is not pa and p is not pb]
                boundary = next_event if next_event < t_end else t_end
                while time < t_stop:
                    te = time + eps
                    if next_event <= te:
                        _store_runner(pa, cpu_a, usr_a, sys_a, last_a, e_a)
                        _store_runner(pb, cpu_b, usr_b, sys_b, last_b, e_b)
                        sched._last_decay_factor = factor
                        (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ) = fire(events.pop_due(te), (
                            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ))
                        next_event = events.next_time()
                        runnable = [p for p in live if p.state is _RUNNABLE]
                        if (
                            len(runnable) != 2
                            or runnable[0] is not pa
                            or runnable[1] is not pb
                            or self.scheduler is not sched
                            or tick_listeners
                        ):
                            runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                                self._dispatch_state(runnable)
                            )
                            fired = True
                            break
                        du_rate, du_div, du_weight, du_cap = _du_constants(sched)
                        dem_a, f_a, cpu_a, usr_a, sys_a, last_a, e_a = _runner(pa)
                        dem_b, f_b, cpu_b, usr_b, sys_b, last_b, e_b = _runner(pb)
                        finite = dem_a != inf or dem_b != inf
                        n2a = du_weight * pa.nice
                        n2b = du_weight * pb.nice
                        factor = sched._last_decay_factor
                        others = [p for p in live if p is not pa and p is not pb]
                        boundary = next_event if next_event < t_end else t_end
                    while next_tick <= te:
                        la = la * tick_decay + two_om
                        n_ticks += 1
                        load2 = 2.0 * la
                        factor = load2 / (load2 + 1.0)
                        e_a *= factor
                        e_b *= factor
                        if others:
                            for p in others:
                                p.estcpu *= factor
                        next_tick += tick_len
                    stop = next_tick if next_tick < boundary else boundary
                    span = stop - time
                    if span <= eps:
                        time = stop
                        continue
                    dur = quantum if quantum < span else span
                    pr_a = e_a / du_div + n2a
                    pr_b = e_b / du_div + n2b
                    if pr_b < pr_a or (pr_b == pr_a and last_b < last_a):
                        if finite and (
                            dem_b - cpu_b < dur or dem_b - (cpu_b + dur) <= eps
                        ):
                            general = True
                            break
                        cpu_b += dur
                        sp = dur * f_b
                        su = dur - sp
                        sys_b += sp
                        usr_b += su
                        e = e_b + du_rate * dur
                        e_b = du_cap if e > du_cap else e
                        last_b = time
                    else:
                        if finite and (
                            dem_a - cpu_a < dur or dem_a - (cpu_a + dur) <= eps
                        ):
                            general = True
                            break
                        cpu_a += dur
                        sp = dur * f_a
                        su = dur - sp
                        sys_a += sp
                        usr_a += su
                        e = e_a + du_rate * dur
                        e_a = du_cap if e > du_cap else e
                        last_a = time
                    n_dispatches += 1
                    cum_sys += sp
                    cum_user += su
                    cum_nrun += 2 * dur
                    time += dur
                if not fired:
                    _store_runner(pa, cpu_a, usr_a, sys_a, last_a, e_a)
                    _store_runner(pb, cpu_b, usr_b, sys_b, last_b, e_b)
                    sched._last_decay_factor = factor
            else:
                general = True
            if not general:
                continue

            # 4. General spans: a fluid span (no more runners than CPUs), or
            #    quantum-by-quantum dispatch until the next tick or event.
            stop = next_tick if next_tick < t_end else t_end
            if next_event < stop:
                stop = next_event
            span = stop - time
            if span <= eps:
                time = stop
                continue
            if n_r == 0:
                cum_idle += span * ncpu
                time += span
                continue
            fluid = n_r <= ncpu
            while True:
                now = time
                if fluid:
                    dur = span
                    for p in runnable:
                        rem = p.cpu_demand - p.cpu_time
                        if rem < dur:
                            dur = rem
                    if dur < eps:
                        dur = eps
                    chosen = runnable
                else:
                    dur = quantum if quantum < span else span
                    chosen = []
                    pool = runnable
                    for k in range(ncpu):
                        if is_du:
                            best = None
                            bp = bl = inf
                            for p in pool:
                                pr = p.estcpu / du_div + du_weight * p.nice
                                if pr < bp or (pr == bp and p.last_dispatch < bl):
                                    best = p
                                    bp = pr
                                    bl = p.last_dispatch
                        else:
                            best = sched.pick(pool, now)
                        chosen.append(best)
                        if k + 1 < ncpu:
                            pool = [p for p in pool if p is not best]
                    n_dispatches += ncpu
                used = 0.0
                completed = False
                for p in chosen:
                    rem = p.cpu_demand - p.cpu_time
                    run = dur if dur < rem else rem
                    cpu = p.cpu_time + run
                    p.cpu_time = cpu
                    sp = run * p.sys_fraction
                    p.sys_time += sp
                    p.user_time += run - sp
                    if is_du:
                        e = p.estcpu + du_rate * run
                        p.estcpu = du_cap if e > du_cap else e
                    else:
                        sched.charge(p, run)
                    cum_sys += sp
                    cum_user += run - sp
                    p.last_dispatch = now
                    used += run
                    if p.cpu_demand - cpu <= eps:
                        store_clock((
                            now, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ))
                        self._complete(p, now + run)
                        (
                            _, la, cum_user, cum_sys, cum_idle, cum_nrun,
                            n_ticks, n_dispatches, next_tick,
                        ) = _load_clock(self)
                        completed = True
                if fluid:
                    cum_idle += (ncpu - n_r) * dur
                else:
                    cum_idle += dur * ncpu - used
                cum_nrun += n_r * dur
                time = now + dur
                if completed:
                    runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                        self._dispatch_state()
                    )
                    next_event = events.next_time()
                    break
                te = time + eps
                if time >= t_stop or next_tick <= te or next_event <= te:
                    break
                span = stop - time
                if span <= eps:
                    break

        # Trailing boundary: the ticks landing on t_end ran above; now the
        # events due there (fire stores the final clock first).
        fire(events.pop_due(time + eps), (
            time, la, cum_user, cum_sys, cum_idle, cum_nrun,
            n_ticks, n_dispatches, next_tick,
        ))
