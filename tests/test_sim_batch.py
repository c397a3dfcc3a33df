"""Parity matrix for the fused kernel loop (``Kernel.run_until``).

The kernel's contract is *bit-identical* state, not approximate
agreement: after ``kernel.run_until(t)`` the kernel, every live process
and the attached measurement suite must be byte-for-byte equal to what
the plain event loop (``tests/sim_reference.py``) produces.  These tests
pin that down across the scheduler x workload x ncpu matrix and through
``simulate_host``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mixture import AdaptiveForecaster, forecast_series
from repro.experiments.testbed import TestbedConfig, simulate_host
from repro.obs.exporters import deterministic_view, render_prometheus
from repro.obs.instrument import observe_kernel
from repro.obs.metrics import MetricsRegistry, installed
from repro.sensors.suite import METHODS, MeasurementSuite
from repro.sim.host import SimHost
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process
from repro.sim.scheduler import (
    DecayUsageScheduler,
    FairShareScheduler,
    RoundRobinScheduler,
)
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import Pareto
from repro.workload.jobs import BatchJobStream, Daemon, PeriodicJob
from repro.workload.profiles import build_host, profile_names
from repro.workload.sessions import OnOffSession
from tests.sim_reference import reference_run_until

SCHEDULERS = {
    "decay_usage": DecayUsageScheduler,
    "round_robin": RoundRobinScheduler,
    "fair_share": FairShareScheduler,
}

WORKLOADS = {
    # Pure idle: only the measurement suite's own probes and tests run.
    "idle": lambda: [],
    # Console users coming and going, plus a background daemon.
    "bursty": lambda: [
        OnOffSession("alice", initial_delay=40.0),
        OnOffSession("bob", nice=4, initial_delay=200.0),
        Daemon("cron", sys_fraction=0.4),
    ],
    # A grid storm: batch arrivals stacked on periodic jobs and a hog.
    "grid_storm": lambda: [
        BatchJobStream(
            "grid",
            arrivals=PoissonArrivals(1.0 / 240.0),
            demand=Pareto(1.4, 45.0),
            max_concurrent=6,
        ),
        PeriodicJob("backup", period=900.0, demand=60.0, offset=120.0),
        Daemon("hog", nice=10),
    ],
}

#: Checkpoints straddle measurement boundaries on purpose: 3599.2 lands
#: mid-round, 3600.0 puts the (float-drifted) measure event inside the
#: trailing ``[t_end - eps, t_end)`` window where the loop fires it after
#: the boundary tick, and 4321.7 is nothing-aligned.
CHECKPOINTS = (3599.2, 3600.0, 4321.7)


def build_pair(sched_key: str, wl_key: str, ncpu: int):
    """Two identically-seeded (host, suite) pairs for one matrix cell."""

    def build():
        host = SimHost(
            f"{sched_key}-{wl_key}-{ncpu}",
            config=KernelConfig(ncpu=ncpu),
            scheduler=SCHEDULERS[sched_key](),
            seed=np.random.SeedSequence([11, ncpu]),
        )
        host.attach(*WORKLOADS[wl_key]())
        suite = MeasurementSuite(host=host.name).attach(host)
        return host, suite

    return build(), build()


def kernel_state(kernel: Kernel):
    """Everything the two loops must agree on, floats kept exact via bytes."""
    scalars = np.asarray(
        [
            kernel.time,
            kernel.load_average,
            kernel.cum_user,
            kernel.cum_sys,
            kernel.cum_idle,
            kernel.cum_nrun_time,
        ]
    )
    procs = kernel.processes
    per_proc = np.asarray(
        [
            [p.cpu_time, p.sys_time, p.user_time, p.estcpu, p.last_dispatch]
            for p in procs
        ]
    )
    return {
        "scalars": scalars.tobytes(),
        "counters": (kernel.n_ticks, kernel.n_dispatches, kernel.n_events_fired),
        "procs": [(p.name, p.nice, p.state) for p in procs],
        "proc_floats": per_proc.tobytes(),
    }


def suite_state(suite: MeasurementSuite):
    out = {}
    for method in METHODS:
        times, values = suite.series(method, include_warmup=True)
        out[method] = (
            np.asarray(times).tobytes(),
            np.asarray(values).tobytes(),
        )
    out["observations"] = [
        (o.observed, tuple(sorted(o.premeasurements.items())))
        for o in suite.test_observations
    ]
    return out


@pytest.mark.parametrize("sched_key", sorted(SCHEDULERS))
@pytest.mark.parametrize("wl_key", sorted(WORKLOADS))
@pytest.mark.parametrize("ncpu", [1, 2, 4])
def test_parity_matrix(sched_key, wl_key, ncpu):
    (host_r, suite_r), (host_k, suite_k) = build_pair(sched_key, wl_key, ncpu)
    for t_end in CHECKPOINTS:
        reference_run_until(host_r.kernel, t_end)
        host_k.kernel.run_until(t_end)
        label = f"{sched_key}/{wl_key}/ncpu={ncpu} @ t={t_end}"
        assert kernel_state(host_r.kernel) == kernel_state(host_k.kernel), label
        assert suite_state(suite_r) == suite_state(suite_k), label


def test_mixture_winners_identical():
    """Byte-equal series must leave the forecast mixture in the same state."""
    (host_r, suite_r), (host_k, suite_k) = build_pair("decay_usage", "bursty", 1)
    reference_run_until(host_r.kernel, 7200.0)
    host_k.kernel.run_until(7200.0)
    for method in METHODS:
        _, values_r = suite_r.series(method)
        _, values_k = suite_k.series(method)
        mix_r, mix_k = AdaptiveForecaster(), AdaptiveForecaster()
        out_r = forecast_series(values_r, mix_r)
        out_k = forecast_series(values_k, mix_k)
        assert out_r.tobytes() == out_k.tobytes(), method
        assert mix_r.bank.best_name() == mix_k.bank.best_name(), method


def test_run_batch_without_suite():
    """A bare kernel (no suite, so no callbacks) matches the reference."""

    def build():
        k = Kernel()
        k.spawn(Process("hog"))
        k.spawn(Process("soak", nice=19, sys_fraction=0.3))
        return k

    k_ref, k_fused = build(), build()
    reference_run_until(k_ref, 5000.0)
    k_fused.run_until(5000.0)
    assert kernel_state(k_ref) == kernel_state(k_fused)


def test_run_batch_refuses_backwards():
    k = Kernel()
    k.run_until(100.0)
    with pytest.raises(ValueError, match="backwards"):
        k.run_until(50.0)


class TestSimulateHostDispatch:
    """``simulate_host`` runs the kernel loop; the reference loop agrees."""

    CONFIG = TestbedConfig(duration=3600.0)

    def reference_run(self, name: str):
        """``simulate_host``'s wiring, advanced by the reference loop."""
        config = self.CONFIG
        host = build_host(
            name,
            seed=np.random.SeedSequence([config.seed, profile_names().index(name)]),
            scheduler=DecayUsageScheduler(),
        )
        suite = MeasurementSuite(
            measure_period=config.measure_period,
            probe_period=config.probe_period,
            test_period=config.test_period,
            test_duration=config.test_duration,
            warmup=config.warmup,
            host=name,
        ).attach(host)
        observe_kernel(host.kernel, host=name)
        reference_run_until(host.kernel, config.duration)
        return {
            "series": {
                m: tuple(np.asarray(a).tobytes() for a in suite.series(m))
                for m in METHODS
            },
            "observed": np.asarray(
                [o.observed for o in suite.test_observations]
            ).tobytes(),
        }

    def run_state(self, run):
        return {
            "series": {
                m: (s.times.tobytes(), s.values.tobytes())
                for m, s in run.series.items()
            },
            "observed": run.observed().tobytes(),
        }

    def test_engines_byte_identical_through_simulate_host(self):
        for host in ("kongo", "thing1"):
            with installed(MetricsRegistry()) as registry:
                expected = self.reference_run(host)
                reference_view = render_prometheus(deterministic_view(registry))
            with installed(MetricsRegistry()) as registry:
                run = simulate_host(host, self.CONFIG)
                kernel_view = render_prometheus(deterministic_view(registry))
            assert self.run_state(run) == expected, host
            assert kernel_view == reference_view, host

    def test_invalid_engine_rejected(self):
        # The engine option is gone: naming it is an error, not a no-op.
        with pytest.raises(TypeError, match="sim_engine"):
            TestbedConfig(sim_engine="auto")
