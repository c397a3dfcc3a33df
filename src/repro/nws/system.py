"""NWSSystem: a complete monitored grid behind the NWS service protocol.

A thin sensor harness over one :class:`~repro.nws.service.ServiceCore`
tenant: the core owns the name server, memory and forecaster service,
and one :class:`~repro.nws.sensorhost.SensorHost` per requested profile
publishes into that tenant and registers with its name server -- the
in-process equivalent of deploying the NWS across a departmental grid.
Clients interact exactly as the paper's schedulers did: discover CPU
sensors through the name server, then ask the forecaster for availability
predictions with error bars, through :meth:`NWSSystem.client`.

A :class:`~repro.faults.plan.FaultPlan` can be installed at construction:
each host compiles the plan with a stream seeded from ``(seed,
host_index)``, so faulted runs stay bit-reproducible.  The core is wired
to the system clock with a staleness horizon of three measurement
periods (the registration TTL): a host that stops publishing keeps being
forecast from last-known-good data, stale-marked with widened error
bars.
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.policy import seed_entropy
from repro.nws.client import NWSClient
from repro.nws.sensorhost import SensorHost
from repro.nws.service import DEFAULT_TENANT, ServiceCore
from repro.obs.tracing import get_tracer
from repro.workload.profiles import HOST_PROFILES

__all__ = ["NWSSystem"]


class NWSSystem:
    """Sensors over simulated hosts, publishing into one service tenant.

    Parameters
    ----------
    profiles:
        Distinct testbed profiles, one per monitored machine.  Each host
        publishes under ``cpu.<profile>.<method>``, so a repeated profile
        is rejected with ``ValueError``, as is an unknown one.
    seed:
        Root seed (int, int sequence, or anything
        ``np.random.SeedSequence`` accepts); each host gets an
        independent child.
    measure_period:
        Sensor cadence.
    memory_capacity:
        Per-series retention (default one day of 10 s samples).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` compiled per host;
        None (default) installs no fault hooks at all.
    stale_after:
        Seconds without fresh data before forecasts are served
        stale-marked with widened error bars (default ``3 *
        measure_period``, matching the registration TTL).
    """

    def __init__(
        self,
        profiles: list[str],
        *,
        seed=0,
        measure_period: float = 10.0,
        memory_capacity: int = 8640,
        fault_plan: FaultPlan | None = None,
        stale_after: float | None = None,
    ):
        if not profiles:
            raise ValueError("need at least one monitored host")
        unknown = [p for p in profiles if p not in HOST_PROFILES]
        if unknown:
            raise ValueError(
                f"unknown profiles {unknown}; known: {sorted(HOST_PROFILES)}"
            )
        repeated = sorted({p for p in profiles if profiles.count(p) > 1})
        if repeated:
            raise ValueError(
                f"repeated profiles {repeated}: each host publishes to "
                "its own cpu.<profile>.* series"
            )
        self.clock = 0.0
        self.fault_plan = fault_plan
        self.core = ServiceCore(
            clock=lambda: self.clock,
            memory_capacity=memory_capacity,
            stale_after=(
                stale_after if stale_after is not None else 3.0 * measure_period
            ),
        )
        tenant = self.core.tenant(DEFAULT_TENANT)
        self.memory = tenant.memory
        self.forecaster = tenant.forecaster
        self.nameserver = tenant.nameserver
        self.nameserver.register(
            "memory.main", "memory", {"capacity": str(memory_capacity)}
        )
        self.nameserver.register("forecaster.main", "forecaster", {})
        self._client = None

        entropy = seed_entropy(seed)
        root = np.random.SeedSequence(list(entropy))
        self.hosts: list[SensorHost] = []
        for index, (profile, child) in enumerate(
            zip(profiles, root.spawn(len(profiles)))
        ):
            # Hosts with no applicable clauses get no injector at all, so
            # attaching a plan that never touches them costs nothing (the
            # bench_faults budget).  Streams are seeded per host_index, so
            # skipping one host never shifts another's fault weather.
            faults = None
            if fault_plan is not None and fault_plan.for_host(profile):
                faults = fault_plan.compile(
                    seed=entropy, host_index=index, host=profile
                )
            self.hosts.append(
                SensorHost(
                    profile,
                    self.nameserver,
                    self.memory,
                    seed=child,
                    measure_period=measure_period,
                    faults=faults,
                )
            )

    def advance(self, until: float) -> None:
        """Run every monitored host to simulated time ``until``."""
        if not math.isfinite(until):
            raise ValueError(f"cannot advance to non-finite time {until}")
        if until < self.clock:
            raise ValueError(f"cannot go back in time: {until} < {self.clock}")
        with get_tracer().span("nws.advance", until=until):
            # Move the service clock first so registrations made while
            # pumping are stamped with the current simulated time.
            self.clock = until
            for host in self.hosts:
                host.pump(until)

    # ------------------------------------------------------------- queries

    def cpu_sensors(self) -> list[str]:
        """Names of live CPU sensors (via name-server discovery)."""
        return [r.name for r in self.nameserver.lookup("sensor", resource="cpu")]

    def client(self) -> NWSClient:
        """The :class:`~repro.nws.client.NWSClient` over this system's core.

        Cached -- repeated calls return the same in-process client, which
        queries exactly the tenant the sensors are filling.
        """
        if self._client is None:
            self._client = NWSClient.in_process(self.core)
        return self._client

    def series_name(self, profile: str, method: str = "nws_hybrid") -> str:
        """The series a monitored host's sensor publishes under.

        Raises ``KeyError`` for unmonitored profiles.
        """
        for host in self.hosts:
            if host.profile == profile:
                return host.series_name(method)
        raise KeyError(
            f"no monitored host {profile!r}; have "
            f"{[h.profile for h in self.hosts]}"
        )
