"""Discrete-time simulator of a time-shared Unix host.

This is the substrate replacing the paper's real UCSD machines.  It models
exactly the mechanisms the paper's measurement anomalies depend on:

* a **decay-usage priority scheduler** (4.3BSD style): per-process CPU
  usage estimates (``estcpu``) that rise while running and decay over time,
  ``nice`` offsets, and lowest-priority-number-wins quantum dispatch.  A
  fresh process therefore preempts a long-running one until its own usage
  catches up (the *kongo* effect), and a ``nice 19`` background process
  yields almost entirely to full-priority work while still inflating the
  run queue (the *conundrum* effect);
* **kernel accounting**: per-second run-queue sampling smoothed into the
  one-minute Unix load average, and per-process user/system CPU-time
  accumulation backing ``vmstat``-style counters and ``getrusage()``.

Public surface:

* :class:`repro.sim.kernel.Kernel` -- the machine: clock, event queue,
  scheduler, accounting.
* :class:`repro.sim.process.Process` -- a schedulable entity.
* :mod:`repro.sim.scheduler` -- pluggable scheduling policies (decay-usage
  is the default; round-robin and fair-share exist for ablations).
* :class:`repro.sim.host.SimHost` -- a kernel plus attached workload and
  sensors, the unit the experiment harness manipulates.
* :mod:`repro.sim.batch` -- a faster twin of ``Kernel.run_until`` that
  runs on the same live objects (byte-identical by contract); ``run_batch`` /
  ``batch_unsupported_reason`` / ``ParityUnsupported`` back the
  ``sim_engine`` dispatch in ``simulate_host``.
"""

from repro.sim.batch import (
    BATCH_KERNEL_VERSION,
    ParityUnsupported,
    batch_unsupported_reason,
    run_batch,
)
from repro.sim.engine import EventQueue
from repro.sim.host import SimHost
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process, ProcessState
from repro.sim.scheduler import (
    DecayUsageScheduler,
    FairShareScheduler,
    RoundRobinScheduler,
    Scheduler,
)

__all__ = [
    "BATCH_KERNEL_VERSION",
    "DecayUsageScheduler",
    "EventQueue",
    "ParityUnsupported",
    "batch_unsupported_reason",
    "run_batch",
    "FairShareScheduler",
    "Kernel",
    "KernelConfig",
    "Process",
    "ProcessState",
    "RoundRobinScheduler",
    "Scheduler",
    "SimHost",
]
