"""Batch twin of the event-driven host simulation hot path.

:func:`run_batch` advances a :class:`~repro.sim.kernel.Kernel` (and the
attached :class:`~repro.sensors.suite.MeasurementSuite`) to a deadline
exactly as ``Kernel.run_until`` plus the suite's timed callbacks would.
It runs on the live objects: processes, the scheduler and the sensors are
read and written in place, and every callback is a plain call into the
real code (workload sessions, wakeups, probe and test-process launches and
completions, ``on_done`` hooks).  What it changes is how the hot
stretches between callbacks are executed:

* decay-usage charge, pick and decay are inlined (the other schedulers are
  called through their methods);
* the run queue is a list recomputed only after events fire or a process
  completes, and a contended tick interval is dispatched quantum by
  quantum in one tight loop;
* cruise loops fuse ticks and spans while no process, exactly one, or
  (on one CPU under decay-usage) exactly two are runnable -- the last is
  typically a probe or test process against one job; the runners' floats
  sit in locals for the length of one cruise;
* the suite's measurement round runs inline on the sensors, also inside a
  cruise.

The kernel's clock and counters (:data:`_CLOCK`) are the only state held
in locals; they are stored on the kernel before any callback runs and
read back after it.

Parity contract
---------------
Outputs are **bit-identical** to the event engine: every floating-point
accumulation (the load-average EWMA, ``estcpu`` charge/decay, the
``cum_*`` counters, vmstat differencing, hybrid bias) is performed in the
exact operation order of the event path, so no reassociation and no
vectorised reduction is permitted on those recurrences.  Pure
recomputations (a priority from ``estcpu``, a nice term) may be hoisted
because they produce the same bits from the same inputs.  The parity
tests (``tests/test_sim_batch.py`` and its generated twin) enforce
byte-equal series and equal ``deterministic_view()`` telemetry across
schedulers, workload mixes, ncpus and boundary-straddling deadlines.

Hosts the engine cannot reproduce bit-for-bit -- kernel, process, suite
or sensor subclasses, custom schedulers, ``on_tick`` listeners, suite
round listeners (the NWS sensor-host pump, which is also how fault plans
hook a run) -- are reported by :func:`batch_unsupported_reason`;
``simulate_host`` falls back to the event engine for them (counted, never
an error).  Forcing ``engine="batch"`` on such a host raises
:class:`ParityUnsupported`.  A callback that adds a listener or swaps the
scheduler mid-run is followed exactly: listeners are served through the
real ``Kernel._tick`` / ``MeasurementSuite._measure_tick`` (the cruises
stand down while any exist) and a non-decay-usage scheduler is driven
through its own methods.

Caveats (documented divergences, none observable in supported runs):

* ``REPRO_CONTRACTS`` is sampled once at the start of a batch run, not
  per sensor read;
* a ``Process`` subclass spawned by a callback mid-run is charged by the
  inline accounting, so overrides of ``charge`` or ``remaining`` are not
  consulted;
* if an inline measurement round raises (a contract violation), the
  kernel's clock and counters are left as the last callback saw them.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from types import MethodType

from repro.contracts import ContractError, contracts_enabled
from repro.sim.kernel import _EPS, Kernel
from repro.sim.process import Process, ProcessState
from repro.sim.scheduler import (
    DecayUsageScheduler,
    FairShareScheduler,
    RoundRobinScheduler,
)

__all__ = [
    "BATCH_KERNEL_VERSION",
    "ParityUnsupported",
    "batch_unsupported_reason",
    "run_batch",
]

#: Version of the batch interpreter's numeric core.  Folded into forced-
#: engine cache keys (``repro.runner.keys``): auto-dispatched results are
#: engine-agnostic by the parity contract, but a run that *forced* a
#: particular engine must miss the cache when that engine's core changes.
BATCH_KERNEL_VERSION = 2


class ParityUnsupported(RuntimeError):
    """The host uses features the batch engine cannot reproduce bit-for-bit.

    Raised only when the batch engine is explicitly forced
    (``engine="batch"``); auto dispatch falls back to the event engine
    instead.
    """


def batch_unsupported_reason(kernel: Kernel, suite=None) -> str | None:
    """Why ``kernel`` (and optionally ``suite``) cannot run on the batch path.

    Returns ``None`` when the batch engine fully supports the host, else a
    short slug suitable as a metric label (``tick_listeners``,
    ``custom_scheduler``, ...).  The checks are exact-type checks: a
    subclass may override any numeric detail, and bit-parity cannot be
    assumed for code this engine has never seen.
    """
    if type(kernel) is not Kernel:
        return "kernel_subclass"
    if kernel._tick_listeners:
        return "tick_listeners"
    if type(kernel.scheduler) not in (
        DecayUsageScheduler,
        RoundRobinScheduler,
        FairShareScheduler,
    ):
        return "custom_scheduler"
    for proc in kernel._live:
        if type(proc) is not Process:
            return "process_subclass"
    if suite is not None:
        from repro.sensors.hybrid import HybridSensor
        from repro.sensors.loadavg import LoadAverageSensor
        from repro.sensors.probe import ProbeRunner
        from repro.sensors.suite import MeasurementSuite
        from repro.sensors.testprocess import TestProcessRunner
        from repro.sensors.vmstat import VmstatSensor

        if type(suite) is not MeasurementSuite:
            return "suite_subclass"
        if suite._kernel is not kernel:
            return "suite_detached"
        if suite._round_listeners:
            return "round_listeners"
        if (
            type(suite.loadavg) is not LoadAverageSensor
            or type(suite.vmstat) is not VmstatSensor
            or type(suite.hybrid) is not HybridSensor
        ):
            return "custom_sensor"
        if suite.hybrid.loadavg is not suite.loadavg or (
            suite.hybrid.vmstat is not suite.vmstat
        ):
            return "sensor_wiring"
        if type(suite.hybrid.probe) is not ProbeRunner:
            return "custom_probe"
        if type(suite.tester) is not TestProcessRunner:
            return "custom_tester"
    return None


_RUNNABLE = ProcessState.RUNNABLE

#: Kernel fields the engine keeps in locals between callbacks, in the order
#: of its ``clock`` tuples.
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


def _store_clock(kernel: Kernel, clock: tuple) -> None:
    # Spelled out rather than looped over _CLOCK: this runs before every
    # callback, and attribute stores by name are several times faster.
    (
        kernel.time,
        kernel.load_average,
        kernel.cum_user,
        kernel.cum_sys,
        kernel.cum_idle,
        kernel.cum_nrun_time,
        kernel.n_ticks,
        kernel.n_dispatches,
        kernel._next_tick,
    ) = clock


def _dispatch_state(kernel: Kernel) -> tuple:
    """The run queue, the scheduler and its inlined decay-usage constants.

    Recomputed after any callback, which may wake, sleep, spawn or kill
    processes or swap the scheduler.  ``is_du`` is false for every other
    policy, which the engine then drives through its own methods.
    """
    runnable = [p for p in kernel._live if p.state is _RUNNABLE]
    sched = kernel.scheduler
    if type(sched) is DecayUsageScheduler:
        return (
            runnable,
            sched,
            True,
            sched.charge_rate,
            sched.estcpu_divisor,
            sched.nice_weight,
            sched.estcpu_cap,
        )
    return runnable, sched, False, 0.0, 1.0, 0.0, 0.0


def _reject(method: str, value: float):
    raise ContractError(
        f"sensor {method!r} reading must be a fraction in [0, 1], got {value!r}"
    )


def _measure_round(kernel: Kernel, suite):
    """Inline twin of ``suite._measure_tick`` over the live sensors.

    Returns ``(callback, measure)``: the bound method the round reschedules,
    and ``measure(now, load, cum_user, cum_sys, cum_idle, cum_nrun)``,
    which takes the engine's clock instead of reading the kernel so a
    cruise can take a round without storing its locals.  The three reads
    are those of ``CPUSensor.read`` on the load-average, vmstat and hybrid
    sensors: same inputs, same float operations, same order.  Round
    listeners are not served here.
    """
    from repro.sensors.base import SensorReading
    from repro.sensors.suite import METHODS

    contracts = contracts_enabled()
    la_s, vm_s, hybrid = suite.loadavg, suite.vmstat, suite.hybrid
    ncpu = kernel.config.ncpu
    ncpu_aware = la_s._ncpu_aware
    alpha = vm_s._alpha
    period = suite.measure_period
    callback = suite._measure_tick
    schedule = kernel.events.schedule
    append_time = suite._times.append
    append_la, append_vm, append_hy = (suite._values[m].append for m in METHODS)
    inc_la, inc_vm, inc_hy = (suite._obs_readings[m].inc for m in METHODS)

    def measure(now, load, cum_user, cum_sys, cum_idle, cum_nrun) -> None:
        append_time(now)
        # LoadAverageSensor._measure.
        if not load > 0.0:
            load = 0.0
        if ncpu_aware:
            v = ncpu / (load + 1.0)
            if v > 1.0:
                v = 1.0
        else:
            v = 1.0 / (load + 1.0)
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        if contracts and not 0.0 <= v <= 1.0:
            _reject("load_average", v)
        la_s._last = SensorReading(now, v)
        append_la(v)
        # VmstatSensor._measure.
        if vm_s._prev_user is None:
            n = kernel.run_queue_length
            vm_s._rq = float(n)
            v = 1.0 if n == 0 else 1.0 / (n + 1.0)
        else:
            d_user = cum_user - vm_s._prev_user
            d_sys = cum_sys - vm_s._prev_sys
            d_idle = cum_idle - vm_s._prev_idle
            d_nrun = cum_nrun - vm_s._prev_nrun
            d_time = now - vm_s._prev_time
            total = d_user + d_sys + d_idle
            if total <= 0.0:
                user, sys_f, idle = vm_s.last_user, vm_s.last_sys, vm_s.last_idle
            else:
                user, sys_f, idle = d_user / total, d_sys / total, d_idle / total
                vm_s.last_user, vm_s.last_sys, vm_s.last_idle = user, sys_f, idle
            if d_time > 0.0:
                n = d_nrun / d_time
            else:
                n = float(kernel.run_queue_length)
            rq = vm_s._rq
            if rq is None:
                rq = n
            else:
                rq += alpha * (n - rq)
            vm_s._rq = rq
            v = idle + (user + user * sys_f) / (rq + 1.0)
        vm_s._prev_user = cum_user
        vm_s._prev_sys = cum_sys
        vm_s._prev_idle = cum_idle
        vm_s._prev_nrun = cum_nrun
        vm_s._prev_time = now
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        if contracts and not 0.0 <= v <= 1.0:
            _reject("vmstat", v)
        vm_s._last = SensorReading(now, v)
        append_vm(v)
        # HybridSensor._measure: the trusted method's fresh reading + bias.
        v = hybrid._trusted._last.availability + hybrid._bias
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        if contracts and not 0.0 <= v <= 1.0:
            _reject("nws_hybrid", v)
        hybrid._last = SensorReading(now, v)
        append_hy(v)
        inc_la()
        inc_vm()
        inc_hy()
        schedule(now + period, callback)

    return callback, measure


def run_batch(kernel: Kernel, t_end: float, suite=None) -> None:
    """Advance ``kernel`` (and ``suite``) to ``t_end``, bit-identically.

    Drop-in replacement for ``kernel.run_until(t_end)`` when ``suite`` is
    ``None``, or for running a kernel with an attached measurement suite
    (the suite's measurement rounds run inline instead of through the
    event queue's callback dispatch).

    Raises
    ------
    ParityUnsupported
        If :func:`batch_unsupported_reason` reports a blocker.  Callers
        that want automatic fallback should check the reason first (as
        ``simulate_host`` does).
    """
    reason = batch_unsupported_reason(kernel, suite)
    if reason is not None:
        raise ParityUnsupported(
            f"host not supported by the batch engine: {reason}"
        )

    t_end = float(t_end)
    if t_end < kernel.time - _EPS:
        raise ValueError(
            f"cannot run backwards: now={kernel.time}, requested {t_end}"
        )

    eps = _EPS
    config = kernel.config
    ncpu = config.ncpu
    quantum = config.quantum
    tick_len = config.tick
    tick_decay = kernel._tick_decay
    om_decay = 1.0 - tick_decay  # hoisted pure recomputation; same bits
    two_om = 2 * om_decay
    spare = ncpu - 1  # idle CPUs beside a single runner
    events = kernel.events
    live = kernel._live
    tick_listeners = kernel._tick_listeners
    if suite is None:
        measure_cb = measure = None
        round_listeners = ()
    else:
        measure_cb, measure = _measure_round(kernel, suite)
        round_listeners = suite._round_listeners

    def fire(due: list, clock: tuple) -> tuple:
        """Run a popped batch; returns a new clock iff a callback ran.

        Measurement rounds run inline on ``clock``.  Anything else is a
        plain call with the clock stored on the kernel first and read
        back after.
        """
        kernel.n_events_fired += len(due)
        for callback in due:
            if (
                callback is measure_cb
                or (type(callback) is MethodType and callback == measure_cb)
            ) and not round_listeners:
                measure(*clock[:6])
            else:
                _store_clock(kernel, clock)
                callback()
                clock = _load_clock(kernel)
        return clock

    (
        time, la, cum_user, cum_sys, cum_idle, cum_nrun,
        n_ticks, n_dispatches, next_tick,
    ) = _load_clock(kernel)
    runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
        _dispatch_state(kernel)
    )
    next_event = events.next_time()
    t_stop = t_end - eps
    # A batch a cruise popped at the current instant but left to step 1.
    due = None
    while True:
        # 1. Fire everything due at the current instant.  A batch in
        #    [t_end - eps, t_end) waits for the trailing fire, after the
        #    boundary ticks, as on the event path.
        if due is None and time < t_stop and next_event <= time + eps:
            due = events.pop_due(time + eps)
        if due is not None:
            clock = (
                time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                n_ticks, n_dispatches, next_tick,
            )
            after = fire(due, clock)
            due = None
            next_event = events.next_time()
            if after is not clock:
                (
                    time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                    n_ticks, n_dispatches, next_tick,
                ) = after
                runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                    _dispatch_state(kernel)
                )

        # 2. Accounting ticks (Kernel._tick).
        while next_tick <= time + eps:
            if tick_listeners:
                _store_clock(kernel, (
                    time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                    n_ticks, n_dispatches, next_tick,
                ))
                kernel._tick()
                (
                    time, la, cum_user, cum_sys, cum_idle, cum_nrun,
                    n_ticks, n_dispatches, next_tick,
                ) = _load_clock(kernel)
                runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                    _dispatch_state(kernel)
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

        # 3. Cruises.  Between callbacks nothing changes the run queue, so
        #    while it holds no process, one process, or (on one CPU under
        #    decay-usage) two, a fused loop runs with the runners' floats
        #    in locals.  Each iteration is the event path's (events, ticks,
        #    span) in that order.  A lone measurement round runs without
        #    leaving the loop; any other batch ends the cruise and fires in
        #    step 1.  A span in which a runner would complete ends it too,
        #    and the general code below takes that span.
        n_r = len(runnable)
        general = False
        if tick_listeners or round_listeners:
            general = True
        elif n_r == 0:
            boundary = next_event if next_event < t_end else t_end
            while time < t_stop:
                te = time + eps
                if next_event <= te:
                    due = events.pop_due(te)
                    if len(due) != 1 or due[0] is not measure_cb:
                        break
                    due = None
                    kernel.n_events_fired += 1
                    measure(time, la, cum_user, cum_sys, cum_idle, cum_nrun)
                    next_event = events.next_time()
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
            dem0 = p0.cpu_demand
            finite0 = dem0 != inf
            f0 = p0.sys_fraction
            cpu0 = p0.cpu_time
            usr0 = p0.user_time
            sys0 = p0.sys_time
            last0 = p0.last_dispatch
            e0 = p0.estcpu
            factor = sched._last_decay_factor if is_du else 0.0
            others = [p for p in live if p is not p0]
            boundary = next_event if next_event < t_end else t_end
            while time < t_stop:
                te = time + eps
                if next_event <= te:
                    due = events.pop_due(te)
                    if len(due) != 1 or due[0] is not measure_cb:
                        break
                    due = None
                    kernel.n_events_fired += 1
                    measure(time, la, cum_user, cum_sys, cum_idle, cum_nrun)
                    next_event = events.next_time()
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
                    sched.charge(p0, span)
                cum_sys += sp
                cum_user += su
                last0 = time
                if spare:
                    cum_idle += spare * span
                cum_nrun += span  # 1*span is exact
                time += span
            p0.cpu_time = cpu0
            p0.user_time = usr0
            p0.sys_time = sys0
            p0.last_dispatch = last0
            if is_du:
                p0.estcpu = e0
                sched._last_decay_factor = factor
        elif n_r == 2 and ncpu == 1 and is_du:
            # Typically a probe or test process against one job:
            # quantum-by-quantum dispatch between two processes.  Whoever runs takes the full
            # quantum (a shorter run means completion, which goes to the
            # general code), so the idle charge is an exact +0.0 no-op.
            pa, pb = runnable
            dem_a = pa.cpu_demand
            dem_b = pb.cpu_demand
            finite = dem_a != inf or dem_b != inf
            f_a = pa.sys_fraction
            f_b = pb.sys_fraction
            n2a = du_weight * pa.nice
            n2b = du_weight * pb.nice
            cpu_a = pa.cpu_time
            cpu_b = pb.cpu_time
            usr_a = pa.user_time
            usr_b = pb.user_time
            sys_a = pa.sys_time
            sys_b = pb.sys_time
            last_a = pa.last_dispatch
            last_b = pb.last_dispatch
            e_a = pa.estcpu
            e_b = pb.estcpu
            factor = sched._last_decay_factor
            others = [p for p in live if p is not pa and p is not pb]
            boundary = next_event if next_event < t_end else t_end
            while time < t_stop:
                te = time + eps
                if next_event <= te:
                    due = events.pop_due(te)
                    if len(due) != 1 or due[0] is not measure_cb:
                        break
                    due = None
                    kernel.n_events_fired += 1
                    measure(time, la, cum_user, cum_sys, cum_idle, cum_nrun)
                    next_event = events.next_time()
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
            pa.cpu_time = cpu_a
            pa.user_time = usr_a
            pa.sys_time = sys_a
            pa.last_dispatch = last_a
            pa.estcpu = e_a
            pb.cpu_time = cpu_b
            pb.user_time = usr_b
            pb.sys_time = sys_b
            pb.last_dispatch = last_b
            pb.estcpu = e_b
            sched._last_decay_factor = factor
        else:
            general = True
        if not general:
            continue

        # 4. General spans (Kernel.run_until step 3): a fluid span, or
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
                    _store_clock(kernel, (
                        now, la, cum_user, cum_sys, cum_idle, cum_nrun,
                        n_ticks, n_dispatches, next_tick,
                    ))
                    kernel._complete(p, now + run)
                    (
                        _, la, cum_user, cum_sys, cum_idle, cum_nrun,
                        n_ticks, n_dispatches, next_tick,
                    ) = _load_clock(kernel)
                    completed = True
            if fluid:
                cum_idle += (ncpu - n_r) * dur
            else:
                cum_idle += dur * ncpu - used
            cum_nrun += n_r * dur
            time = now + dur
            if completed:
                runnable, sched, is_du, du_rate, du_div, du_weight, du_cap = (
                    _dispatch_state(kernel)
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
    # events due there.
    clock = (
        time, la, cum_user, cum_sys, cum_idle, cum_nrun,
        n_ticks, n_dispatches, next_tick,
    )
    _store_clock(kernel, fire(events.pop_due(time + eps), clock))
