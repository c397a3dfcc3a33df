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
from time import perf_counter

import numpy as np

from repro.obs.instrument import observe_kernel
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.sensors.suite import METHODS, MeasurementSuite, TestObservation
from repro.sim.batch import (
    ParityUnsupported,
    batch_unsupported_reason,
    run_batch,
)
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

_SIM_ENGINES = ("auto", "batch", "event")


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

    ``sim_engine`` selects how the host simulation executes: ``"auto"``
    (default) uses the batch engine whenever the host
    qualifies and falls back to the event engine otherwise, ``"batch"``
    forces the batch engine (raising
    :class:`~repro.sim.batch.ParityUnsupported` for hosts it cannot
    reproduce bit-for-bit) and ``"event"`` forces the classic
    event-driven kernel.  Both engines produce byte-identical results,
    so the choice never affects outputs -- only wall-clock speed.
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
    sim_engine: str = "auto"

    def __post_init__(self):
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(_SCHEDULERS)}"
            )
        if self.sim_engine not in _SIM_ENGINES:
            raise ValueError(
                f"unknown sim engine {self.sim_engine!r}; "
                f"choose from {list(_SIM_ENGINES)}"
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

    The run also keeps the backtests computed from it (written and read
    only by :mod:`repro.experiments.tables`), so every table handed this
    object scores one shared forecast per method.
    """

    host: str
    config: TestbedConfig
    series: dict[str, TraceSeries]
    observations: list[TestObservation]
    _frozen: bool = field(default=True, repr=False)
    _forecasts: dict[tuple[str, str], np.ndarray] = field(
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

    # Engine dispatch: the batch engine is a bit-identical twin of
    # Kernel.run_until, so "auto" uses it whenever the host qualifies and
    # falls back to the event engine otherwise (counted, never an error).
    # Only engine="batch" treats an unsupported host as a failure.
    engine = config.sim_engine
    fallback_reason = None
    if engine == "event":
        resolved = "event"
    else:
        fallback_reason = batch_unsupported_reason(host.kernel, suite)
        if fallback_reason is None:
            resolved = "batch"
        elif engine == "batch":
            raise ParityUnsupported(
                f"host {name!r} cannot run on the batch engine "
                f"({fallback_reason}); use sim_engine='auto' or 'event'"
            )
        else:
            resolved = "event"
    registry = get_registry()
    registry.counter("repro_sim_engine_total", engine=resolved, host=name).inc()
    if fallback_reason is not None and engine == "auto":
        registry.counter(
            "repro_sim_engine_fallback_total", host=name, reason=fallback_reason
        ).inc()
    wall_start = perf_counter()
    if resolved == "batch":
        run_batch(host.kernel, config.duration, suite=suite)
    else:
        host.run_until(config.duration)
    registry.histogram(
        "repro_sim_engine_seconds", engine=resolved, host=name
    ).observe(perf_counter() - wall_start)
    # Root span for the profiler: sim-clock endpoints, so the probe spans
    # recorded during the run nest under it and traces stay bit-stable.
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
