"""SMP extension study (paper Section 4 future work).

The paper's formulas assume uniprocessors; its stated future work includes
"shared-memory multiprocessors".  This experiment runs an ``ncpu``-way
simulated host under scaled workload and compares two load-average-based
availability estimates against the ground-truth test process:

* the paper's uniprocessor formula ``1 / (L + 1)`` -- which *underestimates*
  availability on SMP hardware (a load of 1 on a 4-way box still leaves
  idle processors);
* the SMP-aware variant ``min(1, ncpu / (L + 1))``.

The measured error gap quantifies how badly a grid scheduler using the
1999 formula would misjudge multiprocessor servers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.testprocess import TestProcessRunner, TestRun
from repro.sim.host import SimHost
from repro.sim.kernel import KernelConfig
from repro.workload.distributions import BoundedPareto, Pareto
from repro.workload.sessions import OnOffSession

__all__ = ["SmpResult", "smp_study", "smp_sweep"]


@dataclass(frozen=True)
class SmpResult:
    """Measurement errors of both formulas on one ``ncpu`` configuration.

    Attributes
    ----------
    ncpu:
        Number of CPUs.
    plain_mae:
        MAE of the paper's uniprocessor formula.
    aware_mae:
        MAE of the SMP-aware formula.
    mean_truth:
        Mean availability the test processes observed.
    n:
        Number of ground-truth samples.
    """

    ncpu: int
    plain_mae: float
    aware_mae: float
    mean_truth: float
    n: int


def _smp_workload(ncpu: int) -> list:
    """Compute-job load scaled so per-CPU utilization stays comparable."""
    return [
        OnOffSession(
            f"job{i}",
            on_time=BoundedPareto(1.6, 40.0, 450.0),
            off_time=Pareto(1.6, 350.0),
            sys_fraction=0.05,
            io_interval=1.5,
            io_wait=0.25,
        )
        for i in range(2 * ncpu)
    ]


def smp_study(
    ncpu: int,
    *,
    seed: int = 7,
    duration: float = 6 * 3600.0,
    test_period: float = 600.0,
    warmup: float = 600.0,
) -> SmpResult:
    """Measure both load-average formulas on an ``ncpu``-way host.

    Parameters
    ----------
    ncpu:
        CPU count (>= 1).
    seed, duration, test_period, warmup:
        Standard run controls.
    """
    if ncpu < 1:
        raise ValueError(f"ncpu must be >= 1, got {ncpu}")
    host = SimHost(
        f"smp{ncpu}", config=KernelConfig(ncpu=ncpu), seed=np.random.SeedSequence([seed, ncpu])
    )
    host.attach(*_smp_workload(ncpu))

    plain = LoadAverageSensor(ncpu_aware=False)
    aware = LoadAverageSensor(ncpu_aware=True)
    tester = TestProcessRunner(duration=10.0)
    kernel = host.kernel
    samples: list[tuple[float, float, float]] = []

    def measure():
        plain.read_availability(kernel)
        aware.read_availability(kernel)
        kernel.after(10.0, measure)

    def launch_test():
        pre_plain = plain.last_availability
        pre_aware = aware.last_availability

        def record(run: TestRun):
            samples.append((pre_plain, pre_aware, run.observed))

        tester.launch(kernel, record)
        kernel.after(test_period, launch_test)

    kernel.after(10.0, measure)
    kernel.after(max(warmup, test_period) + 5.0, launch_test)
    host.run_until(duration)

    if not samples:
        raise RuntimeError("no ground-truth samples collected")
    arr = np.asarray(samples)
    return SmpResult(
        ncpu=ncpu,
        plain_mae=float(np.abs(arr[:, 0] - arr[:, 2]).mean()),
        aware_mae=float(np.abs(arr[:, 1] - arr[:, 2]).mean()),
        mean_truth=float(arr[:, 2].mean()),
        n=arr.shape[0],
    )


def smp_sweep(
    ncpus,
    *,
    seed: int = 7,
    duration: float = 6 * 3600.0,
    test_period: float = 600.0,
    warmup: float = 600.0,
    jobs: int = 1,
) -> list[SmpResult]:
    """Run :func:`smp_study` for each CPU count, optionally in parallel.

    Each configuration is an independent simulation with its own
    ``(seed, ncpu)``-derived RNG, so fanning out over worker processes
    (``jobs > 1``) returns bit-identical results in the input order.
    """
    study = functools.partial(
        smp_study,
        seed=seed,
        duration=duration,
        test_period=test_period,
        warmup=warmup,
    )
    from repro.runner import parallel_map

    return parallel_map(study, [int(n) for n in ncpus], jobs=jobs)
