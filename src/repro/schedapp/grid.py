"""SimGrid: a pool of monitored simulated hosts that executes task plans.

Each grid host is a testbed machine (background workload included) with an
NWS measurement suite (sensors + probe, no ground-truth test processes)
publishing into the grid's forecast service.  The grid can:

* warm up (run the hosts so sensors and forecasters have history);
* report each host's current medium-term availability forecast;
* execute a static assignment ``{host: [tasks]}`` sequentially per host
  (AppLeS-style independent-task schedule) and report the makespan.

Forecasts flow through the one public API: measurements are published via
an in-process :class:`~repro.nws.client.NWSClient` whose
:class:`~repro.nws.service.ServiceCore` runs an aggregated
:class:`~repro.core.predictor.PredictorMixture` per series, so the grid
asks ``client.query(series, horizon=30)`` exactly like a remote scheduler
talking to ``nws-repro serve`` would.

Hosts do not interact, so the grid advances each kernel independently --
the simulated clocks stay aligned at observation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.predictor import PredictorMixture
from repro.nws.client import NWSClient
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.schedapp.tasks import GridTask, TaskResult
from repro.sensors.suite import MeasurementSuite
from repro.sim.process import Process
from repro.workload.profiles import build_host

__all__ = ["SimGrid", "GridRunResult"]


@dataclass(frozen=True)
class GridRunResult:
    """Outcome of executing one assignment on the grid.

    Attributes
    ----------
    results:
        Per-task execution records.
    makespan:
        Wall-clock seconds from dispatch until the last task finished.
    """

    results: list[TaskResult]
    makespan: float
    _frozen: bool = field(default=True, repr=False)

    @property
    def per_host_finish(self) -> dict[str, float]:
        """Finish time of each host's task chain (relative to dispatch)."""
        out: dict[str, float] = {}
        for r in self.results:
            out[r.host] = max(out.get(r.host, 0.0), r.end_time)
        return out


class SimGrid:
    """A pool of monitored simulated hosts.

    Parameters
    ----------
    host_names:
        Profiles to instantiate (repeats allowed -- each instance
        gets an independent seed).
    seed:
        Root seed.
    measure_period:
        Sensor cadence feeding the predictors (default 10 s).
    method:
        Which sensor stream feeds the predictors: ``"load_average"``,
        ``"vmstat"`` or ``"nws_hybrid"`` (default).  The scheduler-gain
        benchmark compares these: a sensor's measurement pathology (Table
        1) propagates directly into placement quality.
    """

    def __init__(
        self,
        host_names: list[str],
        *,
        seed: int = 0,
        measure_period: float = 10.0,
        method: str = "nws_hybrid",
    ):
        if not host_names:
            raise ValueError("need at least one host")
        if method not in ("load_average", "vmstat", "nws_hybrid"):
            raise ValueError(f"unknown sensor method {method!r}")
        self.method = method
        registry = get_registry()
        self._obs_completed = registry.counter("repro_sched_tasks_completed_total")
        self._obs_makespan = registry.gauge("repro_sched_makespan_seconds")
        root = np.random.SeedSequence(seed)
        children = root.spawn(len(host_names))
        # One forecast service for the whole grid: each host's hybrid
        # series gets its own aggregated predictor, queried through the
        # client API a remote scheduler would use.
        self.client = NWSClient.in_process(
            forecaster_factory=lambda: PredictorMixture(aggregation=30)
        )
        self.hosts = []
        self.suites: list[MeasurementSuite] = []
        self._fed: list[int] = []
        self.names: list[str] = []
        for i, (name, child) in enumerate(zip(host_names, children)):
            host = build_host(name, seed=child)
            suite = MeasurementSuite(
                measure_period=measure_period, test_period=None
            ).attach(host)
            self.hosts.append(host)
            self.suites.append(suite)
            self._fed.append(0)
            self.names.append(f"{name}#{i}")
            self.client.register(
                f"sensor.{name}#{i}", "sensor", {"resource": "cpu", "host": name}
            )

    def series_name(self, grid_name: str) -> str:
        """The service series a grid host's suite publishes under."""
        return f"cpu.{grid_name}.{self.method}"

    def advance(self, t: float) -> None:
        """Run every host to absolute simulated time ``t``, publishing any
        new hybrid-sensor measurements into the forecast service."""
        for host, suite, name, idx in zip(
            self.hosts, self.suites, self.names, range(len(self.hosts))
        ):
            host.run_until(t)
            times, values = suite.series(self.method, include_warmup=True)
            series = self.series_name(name)
            for tt, v in zip(times[self._fed[idx] :], values[self._fed[idx] :]):
                self.client.publish(series, time=float(tt), value=float(v))
            self._fed[idx] = len(values)

    @property
    def now(self) -> float:
        return self.hosts[0].kernel.time

    def forecasts(self, horizon_frames: int = 30) -> dict[str, float]:
        """Current availability forecast per host (medium-term by default)."""
        return {
            name: self.client.query(
                self.series_name(name), horizon=horizon_frames
            ).forecast
            for name in self.names
        }

    def execute(self, assignment: dict[str, list[GridTask]]) -> GridRunResult:
        """Run tasks sequentially per host, starting now; returns makespan.

        Parameters
        ----------
        assignment:
            ``{grid host name: ordered tasks}``.  Unknown names raise.
        """
        for name in assignment:
            if name not in self.names:
                raise KeyError(f"unknown grid host {name!r}; have {self.names}")
        start = self.now
        results: list[TaskResult] = []
        finish_times = []

        for name, tasks in assignment.items():
            if not tasks:
                continue
            idx = self.names.index(name)
            host = self.hosts[idx]
            chain_results: list[TaskResult] = []
            queue = list(tasks)

            def launch(queue=queue, host=host, name=name, sink=chain_results):
                if not queue:
                    return
                task = queue.pop(0)
                begun = host.kernel.time

                def done(_proc, task=task, begun=begun):
                    sink.append(
                        TaskResult(
                            task=task,
                            host=name,
                            start_time=begun - start,
                            end_time=host.kernel.time - start,
                        )
                    )
                    launch()

                host.kernel.spawn(
                    Process(
                        f"grid:{task.task_id}", cpu_demand=task.work, on_done=done
                    )
                )

            launch()
            # Advance this host until its chain drains.
            expected = len(tasks)
            guard = start
            while len(chain_results) < expected:
                guard += 60.0
                host.run_until(guard)
                if guard - start > 1e7:  # pragma: no cover - runaway guard
                    raise RuntimeError(f"tasks on {name} did not finish")
            results.extend(chain_results)
            finish_times.append(chain_results[-1].end_time)

        # Re-align all hosts to the same clock (the guard stepping may have
        # run some hosts slightly past the last completion).
        horizon = start + (max(finish_times) if finish_times else 0.0)
        horizon = max([horizon] + [h.kernel.time for h in self.hosts])
        self.advance(horizon)
        makespan = max(finish_times) if finish_times else 0.0
        self._obs_completed.inc(len(results))
        self._obs_makespan.set(makespan)
        get_tracer().record(
            "sched.execute", start, start + makespan, tasks=len(results)
        )
        return GridRunResult(results=results, makespan=makespan)
