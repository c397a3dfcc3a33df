"""MeasurementSuite: the full NWS monitoring configuration on one host.

Wires onto one simulated host exactly what ran on each UCSD machine:

* availability measured by all three methods every ``measure_period``
  (10 s) -- load average and vmstat from one measurement pass, then the
  hybrid's arbitrated report;
* the hybrid's probe once per ``probe_period`` (60 s);
* a ground-truth test process every ``test_period``, capturing each
  method's latest reading immediately before launch (paper Section 2.2)
  and the availability the test process then observes.

Everything is recorded in plain lists during the run (cheap appends on the
hot path) and exposed as NumPy arrays afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import get_registry
from repro.sensors.hybrid import HybridSensor
from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.probe import ProbeRunner
from repro.sensors.testprocess import TestProcessRunner, TestRun
from repro.sensors.vmstat import VmstatSensor
from repro.sim.host import SimHost
from repro.sim.kernel import Kernel

__all__ = ["MeasurementSuite", "TestObservation", "METHODS"]

#: Method column order used by every paper table.
METHODS = ("load_average", "vmstat", "nws_hybrid")

#: Seconds into a measurement interval at which test processes start.
TEST_OFFSET = 5.0


@dataclass(frozen=True)
class TestObservation:
    """One ground-truth sample: pre-readings plus what the test process saw.

    Attributes
    ----------
    start_time:
        When the test process launched.
    premeasurements:
        Latest availability reading of each method at launch
        (``{method_name: fraction}``).
    observed:
        Availability the test process experienced.
    """

    __test__ = False  # not a pytest test class

    start_time: float
    premeasurements: dict[str, float]
    observed: float


class MeasurementSuite:
    """NWS monitoring attached to one simulated host.

    Parameters
    ----------
    measure_period:
        Seconds between sensor readings (paper: 10).
    probe_period:
        Seconds between hybrid probes (paper: 60).
    probe_duration:
        Probe wall length (paper: 1.5).
    test_period:
        Seconds between ground-truth test processes (default 600 -- the
        paper does not state its spacing for the 10 s test; ten minutes
        gives 144 ground-truth samples per day without dominating the
        machine).  Pass 3600 with ``test_duration=300`` for the Table 6
        configuration, or ``None`` to disable ground-truth testing
        entirely (sensing-only deployments, e.g. the grid scheduler).
    test_duration:
        Test-process wall length (10 or 300 in the paper).
    warmup:
        Readings earlier than this many seconds are still recorded but
        flagged; :meth:`series` and :attr:`test_observations` exclude them
        by default so the load-average EWMA and vmstat smoothing have
        settled.
    host:
        Label attached to this suite's metrics (``repro_sensor_*``);
        defaults to the empty string for standalone suites.
    """

    def __init__(
        self,
        *,
        measure_period: float = 10.0,
        probe_period: float = 60.0,
        probe_duration: float = 1.5,
        test_period: float | None = 600.0,
        test_duration: float = 10.0,
        warmup: float = 600.0,
        host: str = "",
    ):
        if measure_period <= 0.0:
            raise ValueError(f"measure_period must be positive, got {measure_period}")
        if probe_period < measure_period:
            raise ValueError("probe_period must be >= measure_period")
        if test_period is not None and (
            test_duration <= 0.0 or test_period <= test_duration
        ):
            raise ValueError("need 0 < test_duration < test_period")
        if warmup < 0.0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.measure_period = float(measure_period)
        self.probe_period = float(probe_period)
        self.test_period = None if test_period is None else float(test_period)
        self.test_duration = float(test_duration)
        self.warmup = float(warmup)

        self.host = host
        self.loadavg = LoadAverageSensor()
        self.vmstat = VmstatSensor()
        self.hybrid = HybridSensor(
            self.loadavg,
            self.vmstat,
            ProbeRunner(duration=probe_duration, host=host),
        )
        self.tester = TestProcessRunner(duration=test_duration)
        registry = get_registry()
        self._obs_readings = {
            m: registry.counter("repro_sensor_readings_total", host=host, method=m)
            for m in METHODS
        }
        self._obs_tests = registry.counter("repro_sensor_tests_total", host=host)

        self._times: list[float] = []
        self._values: dict[str, list[float]] = {m: [] for m in METHODS}
        # Bound once: a measurement round runs every 10 simulated seconds.
        self._appends = tuple(self._values[m].append for m in METHODS)
        self._reading_incs = tuple(c.inc for c in self._obs_readings.values())
        self._tests: list[TestObservation] = []
        self._kernel: Kernel | None = None
        self._round_listeners: list = []

    # -------------------------------------------------------------- wiring

    def on_round(self, listener) -> None:
        """Call ``listener(time, {method: value})`` after each measurement round.

        Lets consumers (the NWS sensor host) stream rounds out as they
        happen instead of re-slicing :meth:`series` per pump.
        """
        self._round_listeners.append(listener)

    def attach(self, host: SimHost) -> "MeasurementSuite":
        """Attach to a host's kernel; returns self for chaining."""
        return self.attach_kernel(host.kernel)

    def attach_kernel(self, kernel: Kernel) -> "MeasurementSuite":
        """Attach directly to a kernel."""
        if self._kernel is not None:
            raise ValueError("suite is already attached")
        self._kernel = kernel
        self.vmstat.prime(kernel)
        kernel.after(self.measure_period, self._measure_tick)
        # Launch probes just after a measurement so arbitration compares
        # against fresh readings; first at one probe period in.
        kernel.after(self.probe_period + 0.5, self._probe_tick)
        # Test processes start mid-measurement-interval, after warmup.
        if self.test_period is not None:
            first_test = max(self.test_period, self.warmup) + TEST_OFFSET
            kernel.after(first_test - kernel.time, self._test_tick)
        return self

    # -------------------------------------------------------------- events

    def _measure_tick(self) -> None:
        kernel = self._kernel
        assert kernel is not None
        la = self.loadavg.read_availability(kernel)
        vm = self.vmstat.read_availability(kernel)
        hybrid = self.hybrid.read_availability(kernel)
        self._times.append(kernel.time)
        append_la, append_vm, append_hybrid = self._appends
        append_la(la)
        append_vm(vm)
        append_hybrid(hybrid)
        for inc in self._reading_incs:
            inc()
        if self._round_listeners:
            row = dict(zip(METHODS, (la, vm, hybrid)))
            for listener in self._round_listeners:
                listener(kernel.time, row)
        kernel.after(self.measure_period, self._measure_tick)

    def _probe_tick(self) -> None:
        kernel = self._kernel
        assert kernel is not None
        self.hybrid.run_probe(kernel)
        kernel.after(self.probe_period, self._probe_tick)

    def _test_tick(self) -> None:
        kernel = self._kernel
        assert kernel is not None
        pre = {
            "load_average": self.loadavg.last_availability,
            "vmstat": self.vmstat.last_availability,
            "nws_hybrid": self.hybrid.last_availability,
        }
        start = kernel.time

        def record(run: TestRun):
            self._tests.append(
                TestObservation(
                    start_time=start, premeasurements=pre, observed=run.observed
                )
            )

        self.tester.launch(kernel, record)
        self._obs_tests.inc()
        kernel.after(self.test_period, self._test_tick)

    # -------------------------------------------------------------- output

    def series(
        self, method: str, *, include_warmup: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, availabilities) for one method.

        Parameters
        ----------
        method:
            One of :data:`METHODS`.
        include_warmup:
            Keep readings from the warm-up window (default: drop them).
        """
        if method not in self._values:
            raise KeyError(f"unknown method {method!r}; have {sorted(self._values)}")
        times = np.asarray(self._times)
        values = np.asarray(self._values[method])
        if not include_warmup:
            keep = times >= self.warmup
            times, values = times[keep], values[keep]
        return times, values

    @property
    def test_observations(self) -> list[TestObservation]:
        """Ground-truth observations gathered after warm-up."""
        return [t for t in self._tests if t.start_time >= self.warmup]

    @property
    def all_test_observations(self) -> list[TestObservation]:
        return list(self._tests)

    def n_measurements(self) -> int:
        return len(self._times)
