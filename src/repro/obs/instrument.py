"""Collect-style instrumentation for simulated kernels.

:func:`observe_kernel` attaches one snapshot callback per host label that
copies its kernels' always-on tallies (plain integer attributes,
incremented for free inside the dispatch loop) and derived state (clock,
load average, queue depths) into the installed registry.  Nothing runs per quantum -- the sync
happens only when a snapshot is taken, so enabling metrics costs the sim
hot path nothing beyond the integer bumps it already performs.

The helper is duck-typed on purpose: it reads attributes, it does not
import :mod:`repro.sim`, so ``repro.obs`` stays dependency-free and every
layer can import it without cycles.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry

__all__ = ["observe_kernel"]


#: Counter families and the kernel tally each one sums.
_COUNTERS = (
    ("repro_sim_events_scheduled_total", lambda k: k.events.n_scheduled),
    ("repro_sim_events_fired_total", lambda k: k.n_events_fired),
    ("repro_sim_dispatches_total", lambda k: k.n_dispatches),
    ("repro_sim_ticks_total", lambda k: k.n_ticks),
    ("repro_sim_processes_spawned_total", lambda k: k.n_spawned),
    ("repro_sim_processes_completed_total", lambda k: k.n_completed),
)

_CPU_MODES = (
    ("user", lambda k: k.cum_user),
    ("sys", lambda k: k.cum_sys),
    ("idle", lambda k: k.cum_idle),
)


class _KernelCollector:
    """Snapshot callback for every kernel observed under one host label.

    A registry may see several kernels of one host (a report simulates
    thing1 once per run configuration): counters sum their tallies, and
    gauges read the most recently observed kernel.
    """

    __slots__ = ("host", "kernels")

    def __init__(self, host: str, kernel):
        self.host = host
        self.kernels = [kernel]

    def __call__(self, r) -> None:
        host = self.host
        kernels = self.kernels
        kernel = kernels[-1]
        r.gauge("repro_sim_time_seconds", host=host).set(kernel.time)
        r.gauge("repro_sim_load_average", host=host).set(kernel.load_average)
        r.gauge("repro_sim_run_queue_length", host=host).set(
            kernel.run_queue_length
        )
        r.gauge("repro_sim_event_queue_depth", host=host).set(len(kernel.events))
        for name, tally in _COUNTERS:
            r.counter(name, host=host).sync(sum(tally(k) for k in kernels))
        for mode, tally in _CPU_MODES:
            r.counter("repro_sim_cpu_seconds_total", host=host, mode=mode).sync(
                sum(tally(k) for k in kernels)
            )


def observe_kernel(kernel, *, host: str = "", registry=None) -> None:
    """Export a kernel's state as ``repro_sim_*`` metrics.

    Parameters
    ----------
    kernel:
        A :class:`repro.sim.kernel.Kernel` (or anything with the same
        counters and clock attributes).
    host:
        Label applied to every exported series (profile name).  A second
        kernel observed under the same label adds to its counters.
    registry:
        Explicit registry; defaults to the installed one.  With the null
        registry this is a no-op registration.
    """
    reg = registry if registry is not None else get_registry()
    for callback in getattr(reg, "_callbacks", ()):
        if isinstance(callback, _KernelCollector) and callback.host == host:
            callback.kernels.append(kernel)
            return
    reg.register_callback(_KernelCollector(host, kernel))
