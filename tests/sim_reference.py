"""The plain event loop the kernel's fused loop is checked against.

``reference_run_until(kernel, t_end)`` advances a
:class:`~repro.sim.kernel.Kernel` one span at a time: fire the events due
now, run the ticks due now, then dispatch one fluid span or one quantum
and recompute everything from the live objects.  It is the kernel's loop
before the fusion (``Kernel.run_until``/``_tick``/``_charge_run``/
``_complete``, with ``Process.charge`` as the function ``_charge``), kept
verbatim in its float operation order and its calls so that
``tests/test_sim_batch.py``, ``tests/test_sim_kernel_generated.py`` and
``benchmarks/bench_sim.py`` can demand byte-identical state from
``Kernel.run_until``.

This module holds no tests; pytest does not collect it.
"""

from __future__ import annotations

from repro.sim.kernel import _EPS, Kernel
from repro.sim.process import Process, ProcessState

__all__ = ["reference_run_until"]


def _complete(kernel: Kernel, process: Process, at_time: float) -> None:
    process.state = ProcessState.DONE
    process.end_time = at_time
    kernel._live.remove(process)
    kernel.n_completed += 1
    if process.on_done is not None:
        process.on_done(process)


def _charge(process: Process, cpu_seconds: float) -> None:
    # The deleted Process.charge, kept as a call (and its sys_part computed
    # again in _charge_run, as before) so that benchmarks/bench_sim.py
    # times the loop it always timed.
    process.cpu_time += cpu_seconds
    sys_part = cpu_seconds * process.sys_fraction
    process.sys_time += sys_part
    process.user_time += cpu_seconds - sys_part


def _charge_run(kernel: Kernel, process: Process, cpu_seconds: float) -> None:
    _charge(process, cpu_seconds)
    kernel.scheduler.charge(process, cpu_seconds)
    sys_part = cpu_seconds * process.sys_fraction
    kernel.cum_sys += sys_part
    kernel.cum_user += cpu_seconds - sys_part


def _tick(kernel: Kernel) -> None:
    n = kernel.run_queue_length
    decay = kernel._tick_decay
    kernel.load_average = kernel.load_average * decay + n * (1.0 - decay)
    kernel.n_ticks += 1
    kernel.scheduler.decay(kernel._live, kernel.load_average)
    for listener in kernel._tick_listeners:
        listener(kernel)


def reference_run_until(kernel: Kernel, t_end: float) -> None:
    """Advance ``kernel`` to ``t_end`` with the unfused event loop."""
    t_end = float(t_end)
    if t_end < kernel.time - _EPS:
        raise ValueError(
            f"cannot run backwards: now={kernel.time}, requested {t_end}"
        )
    quantum = kernel.config.quantum
    ncpu = kernel.config.ncpu

    while kernel.time < t_end - _EPS:
        # 1. Fire everything due at (or before) the current instant.
        due = kernel.events.pop_due(kernel.time + _EPS)
        kernel.n_events_fired += len(due)
        for callback in due:
            callback()

        # 2. Run accounting ticks whose boundary we have reached.
        while kernel._next_tick <= kernel.time + _EPS:
            _tick(kernel)
            kernel._next_tick += kernel.config.tick

        # 3. Advance to the next interesting instant.
        stop = min(t_end, kernel._next_tick, kernel.events.next_time())
        span = stop - kernel.time
        if span <= _EPS:
            kernel.time = stop
            continue

        runnable = [p for p in kernel._live if p.state is ProcessState.RUNNABLE]

        if not runnable:
            kernel.cum_idle += span * ncpu
            kernel.time += span
        elif len(runnable) <= ncpu:
            # Fluid path: everyone runs at full speed; stop early if
            # someone completes inside the span.
            dur = span
            for p in runnable:
                if p.remaining < dur:
                    dur = p.remaining
            dur = max(dur, _EPS)
            now = kernel.time
            for p in runnable:
                run = min(dur, p.remaining)
                _charge_run(kernel, p, run)
                p.last_dispatch = now
                if p.remaining <= _EPS:
                    _complete(kernel, p, now + run)
            kernel.cum_idle += (ncpu - len(runnable)) * dur
            kernel.cum_nrun_time += len(runnable) * dur
            kernel.time = now + dur
        else:
            # Contended: quantum-by-quantum dispatch.
            dur = min(quantum, span)
            now = kernel.time
            chosen: list[Process] = []
            pool = runnable
            for _ in range(min(ncpu, len(pool))):
                pick = kernel.scheduler.pick(pool, now)
                chosen.append(pick)
                pool = [p for p in pool if p is not pick]
            used = 0.0
            kernel.n_dispatches += len(chosen)
            for p in chosen:
                run = min(dur, p.remaining)
                _charge_run(kernel, p, run)
                p.last_dispatch = now
                used += run
                if p.remaining <= _EPS:
                    _complete(kernel, p, now + run)
            kernel.cum_idle += dur * ncpu - used
            kernel.cum_nrun_time += len(runnable) * dur
            kernel.time = now + dur

    # Final boundary: ticks landing exactly on t_end.
    while kernel._next_tick <= kernel.time + _EPS:
        _tick(kernel)
        kernel._next_tick += kernel.config.tick
    due = kernel.events.pop_due(kernel.time + _EPS)
    kernel.n_events_fired += len(due)
    for callback in due:
        callback()
