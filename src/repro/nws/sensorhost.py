"""SensorHost: one monitored machine publishing into the NWS.

Binds a simulated testbed host + measurement suite to the service layer:
at every measurement period the three availability readings are published
into the memory under ``cpu.<host>.<method>`` series names, and the
sensor's name-server registration is refreshed (missing a refresh marks
the sensor dead, as in the real system).

When a compiled fault injector (:class:`~repro.faults.plan.HostFaults`)
is attached, every reading is routed through it first: publishes may be
dropped, gapped to NaN, delayed, duplicated, or skewed, crash windows
silence the host entirely (letting its registration lapse -- the NWS
crash detector), and journal faults tear the persistence files and
exercise recovery.  With no injector the original fast path runs
untouched.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.faults.plan import HostFaults
from repro.nws.errors import RegistrationLapsed
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer
from repro.obs.instrument import observe_kernel
from repro.obs.metrics import get_registry
from repro.sensors.suite import METHODS, MeasurementSuite
from repro.sim.host import SimHost
from repro.workload.profiles import build_host

__all__ = ["SensorHost"]


class SensorHost:
    """A monitored host wired into name server + memory.

    Parameters
    ----------
    profile:
        Profile name from the testbed (e.g. ``"thing1"``).
    nameserver / memory:
        The NWS services to attach to.
    seed:
        Host seed.
    measure_period:
        Sensor cadence (default 10 s).
    ttl:
        Registration time-to-live; refreshed on every publish (default
        ``3 * measure_period``).
    faults:
        Optional compiled fault injector for this host (None = no
        faults, original publish path).
    """

    def __init__(
        self,
        profile: str,
        nameserver: NameServer,
        memory: MemoryStore,
        *,
        seed: int | np.random.SeedSequence = 0,
        measure_period: float = 10.0,
        ttl: float | None = None,
        faults: HostFaults | None = None,
    ):
        self.profile = profile
        self.nameserver = nameserver
        self.memory = memory
        self.faults = faults
        self.host: SimHost = build_host(profile, seed=seed)
        self.suite = MeasurementSuite(
            measure_period=measure_period, test_period=None, host=profile
        ).attach(self.host)
        self.suite.on_round(self._buffer_round)
        # Measurement rounds buffer between the simulation callback and
        # pump(), which a service loop may drive from its own thread.
        self._lock = threading.Lock()
        self._rounds: list[tuple[float, dict[str, float]]] = []
        observe_kernel(self.host.kernel, host=profile)
        registry = get_registry()
        self._obs_rounds = registry.counter(
            "repro_nws_publish_rounds_total", host=profile
        )
        self._obs_lapses = registry.counter(
            "repro_nws_ttl_lapses_total", host=profile
        )
        self._ttl = ttl if ttl is not None else 3.0 * measure_period
        self.sensor_name = f"sensor.cpu.{profile}"
        nameserver.register(
            self.sensor_name,
            "sensor",
            {"resource": "cpu", "host": profile},
            ttl=self._ttl,
        )

    def series_name(self, method: str) -> str:
        return f"cpu.{self.profile}.{method}"

    def _buffer_round(self, time: float, row: dict[str, float]) -> None:
        with self._lock:
            self._rounds.append((time, dict(row)))

    def pump(self, until: float) -> int:
        """Advance the simulation to ``until`` and publish new readings.

        Returns the number of measurement rounds published.
        """
        self.host.run_until(until)
        with self._lock:
            rounds = self._rounds
            self._rounds = []
        faults = self.faults
        if faults is None:
            for t, row in rounds:
                for method in METHODS:
                    self.memory.publish(self.series_name(method), t, row[method])
            new_rounds = len(rounds)
        else:
            new_rounds = self._pump_faulted(rounds, until)
        if new_rounds:
            self._obs_rounds.inc(new_rounds)
        alive = faults is None or not faults.crashed(until)
        if alive:
            lapsed = self._registration_lapsed()
            if new_rounds or lapsed:
                if lapsed:
                    # TTL-lapse detection: the registration expired between
                    # pumps (coarse advance steps, or a crash window we just
                    # left) -- re-registering *is* the restart signal.
                    self._obs_lapses.inc()
                    if faults is not None:
                        faults.tally("absorbed", "ttl_reregistered")
                self.nameserver.register(
                    self.sensor_name,
                    "sensor",
                    {"resource": "cpu", "host": self.profile},
                    ttl=self._ttl,
                )
        return new_rounds

    def _pump_faulted(self, rounds, until: float) -> int:
        """Publish ``rounds`` through the fault injector; returns rounds kept."""
        faults = self.faults
        assert faults is not None
        new_rounds = 0
        for t, row in rounds:
            # Deliver delayed publishes that came due before this round so
            # in-window delays land in timestamp order.
            for series, stamped, value in faults.flush(t):
                self._publish_guarded(series, stamped, value)
            if faults.crashed(t):
                faults.crash_drop(len(METHODS))
                continue
            for method in METHODS:
                series = self.series_name(method)
                for stamped, value in faults.route(series, t, row[method]):
                    self._publish_guarded(series, stamped, value)
            new_rounds += 1
        for series, stamped, value in faults.flush(until):
            self._publish_guarded(series, stamped, value)
        faults.tick(until, self.memory, [self.series_name(m) for m in METHODS])
        return new_rounds

    def _publish_guarded(self, series: str, time: float, value: float) -> None:
        try:
            self.memory.publish(series, time, value)
        except ValueError:
            # A late or skew-displaced delivery behind the series head: the
            # memory's ordering contract wins; count it as absorbed.
            self.faults.tally("absorbed", "publish_rejected")

    def _registration_lapsed(self) -> bool:
        try:
            self.nameserver.get(self.sensor_name)
        except RegistrationLapsed:
            return True
        return False
