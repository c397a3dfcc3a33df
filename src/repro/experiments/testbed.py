"""The reproducible six-host testbed and monitored-run machinery.

A :class:`TestbedConfig` pins down everything an experiment depends on:
duration, sensor cadences, test-process configuration, scheduler choice and
the root seed.  :func:`simulate_host` executes one host under one config
and returns a :class:`HostRun` bundling the measurement series and
ground-truth observations.

Execution, memoization and on-disk caching live in :mod:`repro.runner`:
:class:`repro.runner.Runner` is the one entry point for running hosts
(optionally in parallel, optionally persisted).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.obs.instrument import observe_kernel
from repro.obs.tracing import get_tracer
from repro.sensors.suite import METHODS, MeasurementSuite, TestObservation
from repro.sim.kernel import Kernel
from repro.sim.scheduler import (
    DecayUsageScheduler,
    FairShareScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.trace.series import TraceSeries
from repro.workload.profiles import build_host, profile_names

__all__ = [
    "TestbedConfig",
    "HostRun",
    "simulate_host",
    "DAY",
]

#: Seconds in the paper's standard monitoring period.
DAY = 24 * 3600.0

_SCHEDULERS = {
    "decay_usage": DecayUsageScheduler,
    "round_robin": RoundRobinScheduler,
    "fair_share": FairShareScheduler,
}

# benchmarks/e2e/spans.py times the kernel loop through this name ("sim.batch").
run_batch = Kernel.run_until


@dataclass(frozen=True, kw_only=True)
class TestbedConfig:
    """Everything a monitored run depends on.

    Construction is keyword-only: every field names itself at the call
    site, and adding fields never silently re-binds positional callers
    (the config is hashed field-by-name into cache keys, so call-site
    clarity is part of the caching contract).  Derive variants with
    :meth:`derive`::

        base = TestbedConfig(duration=DAY, seed=7)
        medium = base.derive(test_period=3600.0, test_duration=300.0)

    Attributes mirror the paper's setup: 24 hours of monitoring, sensors
    every 10 s, hybrid probe once a minute, a 10 s ground-truth test
    process every 10 minutes (Tables 1-3) or a 5-minute test process every
    hour (Table 6, set ``test_duration=300, test_period=3600``).
    """

    __test__ = False  # not a pytest test class

    duration: float = DAY
    seed: int = 7
    measure_period: float = 10.0
    probe_period: float = 60.0
    test_period: float = 600.0
    test_duration: float = 10.0
    warmup: float = 600.0
    scheduler: str = "decay_usage"

    def __post_init__(self):
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(_SCHEDULERS)}"
            )

    def derive(self, **overrides) -> "TestbedConfig":
        """A copy with ``overrides`` applied, re-validated.

        The standard way to build experiment variants from a base config
        (e.g. the Table 6 medium-term setup) without repeating the
        unchanged fields.
        """
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class HostRun:
    """Results of monitoring one host for one config.

    Attributes
    ----------
    host:
        Host name.
    config:
        The config the run used.
    series:
        ``{method: TraceSeries}`` -- post-warmup availability series for
        each of the three measurement methods.
    observations:
        Ground-truth test-process observations (post-warmup).

    The run also keeps the backtests computed from it, keyed by
    ``(method, aggregation level)``: written and read by
    :mod:`repro.experiments.tables`, so every table handed this object
    scores one shared forecast per series, and persisted with the run by
    :class:`repro.runner.ResultCache`.
    """

    host: str
    config: TestbedConfig
    series: dict[str, TraceSeries]
    observations: list[TestObservation]
    _frozen: bool = field(default=True, repr=False)
    _forecasts: dict[tuple[str, str, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def premeasurements(self, method: str) -> np.ndarray:
        """Sensor readings taken immediately before each test process."""
        return np.asarray([o.premeasurements[method] for o in self.observations])

    def observed(self) -> np.ndarray:
        """What each test process experienced."""
        return np.asarray([o.observed for o in self.observations])

    def values(self, method: str) -> np.ndarray:
        """The availability series of one method (post-warmup)."""
        return self.series[method].values


def simulate_host(name: str, config: TestbedConfig | None = None) -> HostRun:
    """Monitor one testbed host under ``config`` (pure, uncached).

    This is the simulation engine itself: no memoization, no disk cache,
    deterministic given ``(name, config)``.  Production callers go
    through :class:`repro.runner.Runner`, which layers the in-process
    memo and the content-addressed on-disk cache on top and can fan
    multiple hosts out across worker processes.

    Parameters
    ----------
    name:
        A host from :func:`repro.workload.profiles.profile_names`.
    config:
        Run configuration; default :class:`TestbedConfig`.
    """
    config = config if config is not None else TestbedConfig()

    # Derive a distinct, stable seed per host so hosts evolve independently.
    host_index = profile_names().index(name) if name in profile_names() else 97
    seed_seq = np.random.SeedSequence([config.seed, host_index])
    scheduler: Scheduler = _SCHEDULERS[config.scheduler]()
    host = build_host(name, seed=seed_seq, scheduler=scheduler)
    suite = MeasurementSuite(
        measure_period=config.measure_period,
        probe_period=config.probe_period,
        test_period=config.test_period,
        test_duration=config.test_duration,
        warmup=config.warmup,
        host=name,
    ).attach(host)
    observe_kernel(host.kernel, host=name)
    run_start = host.kernel.time

    run_batch(host.kernel, config.duration)
    # One span per simulated host, stamped with sim-clock endpoints (not
    # the tracer's clock), so a seeded run's trace is bit-stable.
    get_tracer().record(
        "kernel.run", start=run_start, end=host.kernel.time, host=name
    )

    series = {}
    for method in METHODS:
        times, values = suite.series(method)
        series[method] = TraceSeries(name, method, times, values)
    return HostRun(
        host=name,
        config=config,
        series=series,
        observations=suite.test_observations,
    )
