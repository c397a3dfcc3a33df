"""Shared data plane of the NWS forecast service.

:class:`ServiceCore` owns the per-tenant NWS triples (memory + forecaster
+ name server) and implements every operation the public API exposes:
publish, fetch, query, register/refresh/lookup, recovery and retention
maintenance.  Every path executes *this* code -- an in-process
:class:`~repro.nws.client.NWSClient` calls the core's methods as its
transport and :class:`~repro.nws.server.ForecastServer` calls them from
HTTP handlers -- so in-process and over-the-wire behaviour cannot
diverge: same validation, same typed errors, same metrics.  After the
tenant, an operation takes its row of :data:`repro.nws.wire.OPERATIONS`.

Tenancy is isolation, not namespacing: each tenant gets its own
:class:`~repro.nws.memory.MemoryStore`,
:class:`~repro.nws.forecaster.ForecasterService` and
:class:`~repro.nws.nameserver.NameServer`, so one tenant's series names,
registrations and forecaster state are invisible to every other.
Addressing a tenant this core does not serve raises
:class:`~repro.nws.errors.UnknownTenant` (the HTTP ``403``).

Retention: a :class:`RetentionPolicy` bounds how much raw history a
series may accumulate before the old prefix is downsampled with
:func:`~repro.trace.resample.resample_mean` -- the NWS memory's
fixed-size-file discipline, but lossy-gracefully: old data gets coarser
instead of vanishing.

Durability: with ``directory`` set the core owns a crash-safe state
directory -- a manifest naming the tenants, and one append-only log per
tenant (layout and record syntax in :mod:`repro.nws.durable`) that the
tenant's memory and name server append to before they change -- and
:meth:`ServiceCore.restore` rebuilds an equivalent core from it: the
series live at each log's last durable record, with their registrations
and expiry times, replay through fresh forecaster mixtures, so a
restarted server's forecasts are byte-identical to an uninterrupted
run's (compaction calls :meth:`ForecasterService.invalidate`, which
makes every forecast a pure function of *retained* history).
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from pathlib import Path

from repro.nws.durable import (
    MANIFEST_NAME,
    read_manifest,
    tenant_directory,
    write_manifest,
)
from repro.nws.errors import ServerOverloaded, UnknownTenant, coerce_field
from repro.nws.forecaster import ForecastReport, ForecasterService
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer, Registration, text_attributes
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

__all__ = [
    "RetentionPolicy",
    "ServiceCore",
    "TenantState",
    "request_deadline",
    "set_request_deadline",
]

#: Default tenant name -- single-tenant callers never need to know
#: tenancy exists.
DEFAULT_TENANT = "default"

# Per-request deadline, propagated by the HTTP server from the
# X-NWS-Deadline header.  Thread-local because the server handles each
# request on its own thread; in-process callers never set one.
_request_state = threading.local()


def set_request_deadline(deadline_at: float | None) -> None:
    """Install (or clear) the calling thread's absolute request deadline.

    ``deadline_at`` is on the :func:`time.monotonic` clock.  While set,
    every :class:`ServiceCore` operation on this thread checks it before
    doing work and raises :class:`~repro.nws.errors.ServerOverloaded`
    (``reason="deadline"``) once it has passed -- the request's budget
    is gone, so finishing the work would only feed a client that already
    timed out.
    """
    _request_state.deadline_at = deadline_at


def request_deadline() -> float | None:
    """The calling thread's absolute monotonic deadline, if any."""
    return getattr(_request_state, "deadline_at", None)


@dataclass(frozen=True)
class RetentionPolicy:
    """When and how a series' old history is downsampled.

    Attributes
    ----------
    compact_above:
        Retained-sample count that triggers compaction.
    keep_recent:
        Newest samples kept at raw resolution (the forecaster's working
        set -- compaction must never coarsen what the mixture is scoring
        against).
    period:
        Grid period the old prefix is mean-resampled onto.
    """

    compact_above: int = 2048
    keep_recent: int = 512
    period: float = 60.0

    def __post_init__(self):
        if self.compact_above < 2:
            raise ValueError(f"compact_above must be >= 2, got {self.compact_above}")
        if not 0 < self.keep_recent < self.compact_above:
            raise ValueError(
                f"keep_recent must be in (0, compact_above), got {self.keep_recent}"
            )
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")


class TenantState:
    """One tenant's isolated NWS triple plus its serialization lock."""

    def __init__(
        self,
        name: str,
        *,
        clock,
        memory_capacity: int,
        directory,
        stale_after: float | None,
        forecaster_factory=None,
        journal_flush_lines: int = 1,
    ):
        self.name = name
        self.memory = MemoryStore(
            capacity=memory_capacity,
            directory=directory,
            journal_flush_lines=journal_flush_lines,
        )
        self.forecaster = ForecasterService(
            self.memory,
            forecaster_factory,
            clock=clock if stale_after is not None else None,
            stale_after=stale_after,
        )
        self.nameserver = NameServer(clock=clock, log=self.memory.log)
        # MemoryStore and NameServer lock internally, but the forecaster's
        # incremental per-series state does not -- concurrent HTTP queries
        # for one tenant serialize here.
        self.lock = threading.Lock()


class ServiceCore:
    """Every forecast-service operation, transport-agnostic.

    Parameters
    ----------
    tenants:
        Tenant names served (default just ``"default"``).  Requests for
        any other tenant raise :class:`~repro.nws.errors.UnknownTenant`.
    clock:
        Zero-argument callable giving the service's notion of time, used
        for registration TTLs and forecast staleness (default: constant
        0.0, i.e. nothing ages).
    memory_capacity / directory / stale_after / forecaster_factory:
        Forwarded to each tenant's triple; ``directory`` gets one
        subdirectory per tenant, holding its log.  With a directory set
        the core also writes the manifest, so :meth:`restore` can
        rebuild the whole deployment.  A directory that already holds a
        manifest raises :class:`ValueError`: its logs belong to
        :meth:`restore`, and a fresh core over them would serve an empty
        store while appending to the old logs.
    retention:
        Optional :class:`RetentionPolicy` applied by :meth:`maintain`.
    journal_flush_lines:
        Journal group-commit size forwarded to each tenant's
        :class:`~repro.nws.memory.MemoryStore`.
    """

    def __init__(
        self,
        tenants=(DEFAULT_TENANT,),
        *,
        clock=None,
        memory_capacity: int = 8640,
        directory=None,
        stale_after: float | None = None,
        forecaster_factory=None,
        retention: RetentionPolicy | None = None,
        journal_flush_lines: int = 1,
    ):
        if directory is not None and (Path(directory) / MANIFEST_NAME).exists():
            raise ValueError(
                f"{directory} already holds a forecast-service state "
                "directory; open it with ServiceCore.restore (nws-repro "
                "serve --state-dir) so its published samples are kept"
            )
        self._open(
            tenants,
            clock=clock,
            memory_capacity=memory_capacity,
            directory=directory,
            stale_after=stale_after,
            forecaster_factory=forecaster_factory,
            retention=retention,
            journal_flush_lines=journal_flush_lines,
        )

    def _open(
        self,
        tenants,
        *,
        clock,
        memory_capacity: int,
        directory,
        stale_after: float | None,
        forecaster_factory,
        retention: RetentionPolicy | None,
        journal_flush_lines: int,
    ) -> None:
        names = list(tenants)
        if not names:
            raise ValueError("need at least one tenant")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.retention = retention
        self.directory = Path(directory) if directory is not None else None
        self._tenants: dict[str, TenantState] = {}
        for name in names:
            tenant_dir = None
            if self.directory is not None:
                tenant_dir = tenant_directory(self.directory, name)
            self._tenants[name] = TenantState(
                name,
                clock=self.clock,
                memory_capacity=memory_capacity,
                directory=tenant_dir,
                stale_after=stale_after,
                forecaster_factory=forecaster_factory,
                journal_flush_lines=journal_flush_lines,
            )
        if self.directory is not None:
            # Tenant constructors above created the directory tree; the
            # manifest names what restore() should rebuild.
            write_manifest(self.directory, names)
        self._init_obs()

    @classmethod
    def restore(
        cls,
        state_dir,
        *,
        clock=None,
        memory_capacity: int = 8640,
        stale_after: float | None = None,
        forecaster_factory=None,
        retention: RetentionPolicy | None = None,
        journal_flush_lines: int = 1,
    ) -> "ServiceCore":
        """Rebuild a core from a crash-safe state directory.

        Reads the manifest for the tenant set, then streams every
        tenant's log once (:meth:`MemoryStore.recover`): the series live
        at its last durable record replay through fresh forecaster
        mixtures, and the registrations keep their original expiries.

        Raises
        ------
        FileNotFoundError
            ``state_dir`` has no manifest (not a state directory).
        ValueError
            The manifest is not a JSON object whose ``tenants`` is a list
            of strings, or its ``state_version`` is from a different
            layout.
        """
        tenants = read_manifest(state_dir)
        core = cls.__new__(cls)
        core._open(
            tenants,
            clock=clock,
            memory_capacity=memory_capacity,
            directory=state_dir,
            stale_after=stale_after,
            forecaster_factory=forecaster_factory,
            retention=retention,
            journal_flush_lines=journal_flush_lines,
        )
        series = samples = registrations = 0
        for name in core.tenant_names():
            state = core.tenant(name)
            with state.lock:
                samples += state.memory.recover()
                series += len(state.memory.series_names())
                registrations += state.nameserver.restore(
                    state.memory.log.registrations.values()
                )
        core._obs_restores.inc()
        core._obs_restored_series.inc(series)
        core._obs_restored_samples.inc(samples)
        core._obs_restored_registrations.inc(registrations)
        return core

    def _init_obs(self) -> None:
        registry = get_registry()
        self._registry = registry
        self._obs_lock = threading.Lock()
        self._obs_requests: dict[str, object] = {}
        self._obs_errors: dict[str, object] = {}
        self._obs_compactions = registry.counter("repro_server_compactions_total")
        self._obs_compacted = registry.counter(
            "repro_server_compacted_samples_total"
        )
        self._obs_restores = registry.counter("repro_server_restores_total")
        self._obs_restored_series = registry.counter(
            "repro_server_restored_series_total"
        )
        self._obs_restored_samples = registry.counter(
            "repro_server_restored_samples_total"
        )
        self._obs_restored_registrations = registry.counter(
            "repro_server_restored_registrations_total"
        )
        registry.register_callback(
            lambda r: r.gauge("repro_server_tenants").set(len(self._tenants))
        )

    # ----------------------------------------------------------- plumbing

    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    def tenant(self, name: str) -> TenantState:
        """The tenant's state, or :class:`UnknownTenant` (the HTTP 403)."""
        state = self._tenants.get(name)
        if state is None:
            raise UnknownTenant(name, sorted(self._tenants))
        return state

    def _count(self, op: str) -> None:
        # Single choke point every operation passes through: count it,
        # and enforce the propagated per-request deadline (if the budget
        # is gone, shed instead of serving a client that timed out).
        deadline = request_deadline()
        if deadline is not None and _time.monotonic() >= deadline:
            raise ServerOverloaded(
                f"request deadline expired before {op}",
                reason="deadline",
                retry_after=0.0,
            )
        counter = self._obs_requests.get(op)
        if counter is None:
            with self._obs_lock:
                counter = self._obs_requests.get(op)
                if counter is None:
                    counter = self._registry.counter(
                        "repro_server_requests_total", op=op
                    )
                    self._obs_requests[op] = counter
        counter.inc()

    def count_error(self, code: str) -> None:
        """Tally one failed operation by wire error code."""
        counter = self._obs_errors.get(code)
        if counter is None:
            with self._obs_lock:
                counter = self._obs_errors.get(code)
                if counter is None:
                    counter = self._registry.counter(
                        "repro_server_errors_total", code=code
                    )
                    self._obs_errors[code] = counter
        counter.inc()

    # ----------------------------------------------------------- data ops

    def publish(self, tenant: str, series: str, time: float, value: float) -> int:
        """Append one measurement; returns the series' retained count."""
        series = coerce_field("series", str, series)
        state = self.tenant(tenant)
        self._count("publish")
        with get_tracer().span("server.publish", tenant=tenant, series=series):
            state.memory.publish(
                series, coerce_field("time", float, time), coerce_field("value", float, value)
            )
            return state.memory.count(series)

    def fetch(
        self,
        tenant: str,
        series: str,
        start: float = float("-inf"),
        stop: float = float("inf"),
        limit: int | None = None,
    ):
        """``(times, values)`` of a series window, as the memory's
        ``array('d')`` copies (:class:`~repro.nws.memory.Window`)."""
        series = coerce_field("series", str, series)
        state = self.tenant(tenant)
        self._count("fetch")
        with get_tracer().span("server.fetch", tenant=tenant, series=series):
            return state.memory.fetch(
                series,
                start=coerce_field("start", float, start),
                stop=coerce_field("stop", float, stop),
                limit=None if limit is None else coerce_field("limit", int, limit),
            )

    def query(self, tenant: str, series: str, horizon: int = 1) -> ForecastReport:
        """One forecast with error bar, ``horizon`` steps ahead."""
        series = coerce_field("series", str, series)
        state = self.tenant(tenant)
        self._count("query")
        with get_tracer().span("server.query", tenant=tenant, series=series):
            with state.lock:
                return state.forecaster.query(
                    series, horizon=coerce_field("horizon", int, horizon)
                )

    def query_all(self, tenant: str) -> dict[str, ForecastReport]:
        """Forecasts for every non-empty series of the tenant."""
        state = self.tenant(tenant)
        self._count("query_all")
        with get_tracer().span("server.query_all", tenant=tenant):
            with state.lock:
                return state.forecaster.query_all()

    def series_names(self, tenant: str) -> list[str]:
        self._count("series")
        return self.tenant(tenant).memory.series_names()

    def recover(self, tenant: str, series: str) -> int:
        """Reload a series' last run from the tenant's log."""
        series = coerce_field("series", str, series)
        state = self.tenant(tenant)
        self._count("recover")
        with get_tracer().span("server.recover", tenant=tenant, series=series):
            with state.lock:
                return state.memory.recover(series)

    # ------------------------------------------------------- registrations

    def register(
        self,
        tenant: str,
        name: str,
        kind: str,
        attributes: dict[str, str] | None = None,
        ttl: float | None = None,
    ) -> Registration:
        name = coerce_field("name", str, name)
        if attributes is not None:
            attributes = coerce_field("attributes", text_attributes, attributes)
        state = self.tenant(tenant)
        self._count("register")
        with get_tracer().span("server.register", tenant=tenant, component=name):
            return state.nameserver.register(
                name,
                kind,
                attributes,
                ttl=None if ttl is None else coerce_field("ttl", float, ttl),
            )

    def refresh(self, tenant: str, name: str, ttl: float) -> Registration:
        name = coerce_field("name", str, name)
        state = self.tenant(tenant)
        self._count("refresh")
        with get_tracer().span("server.refresh", tenant=tenant, component=name):
            return state.nameserver.refresh(name, ttl=coerce_field("ttl", float, ttl))

    def lookup(
        self, tenant: str, kind: str | None = None, attributes: dict | None = None
    ) -> list[Registration]:
        """Live registrations of ``kind`` with all of ``attributes``,
        whose values are matched as text, as the wire sends them."""
        if kind is not None:
            kind = coerce_field("kind", str, kind)
        if attributes is not None:
            attributes = coerce_field("attributes", text_attributes, attributes)
        state = self.tenant(tenant)
        self._count("lookup")
        with get_tracer().span("server.lookup", tenant=tenant):
            return state.nameserver.lookup(kind, **(attributes or {}))

    # ---------------------------------------------------------- lifecycle

    def health(self) -> dict:
        """Liveness summary: per-tenant series and registration counts."""
        self._count("health")
        tenants = {}
        for name in sorted(self._tenants):
            state = self._tenants[name]
            tenants[name] = {
                "series": len(state.memory.series_names()),
                "registrations": len(state.nameserver),
            }
        return {"status": "ok", "tenants": tenants}

    def maintain(self) -> int:
        """One retention pass over every tenant; returns series compacted.

        For each series holding more than ``retention.compact_above``
        samples, the prefix older than the newest ``keep_recent`` raw
        samples is mean-resampled onto the retention grid and swapped in
        via :meth:`MemoryStore.replace`.  No-op without a policy.
        """
        policy = self.retention
        compacted = 0
        with get_tracer().span("server.maintain"):
            for state in self._tenants.values():
                if policy is not None:
                    with state.lock:
                        for series in state.memory.series_names():
                            compacted += self._compact_locked(state, series, policy)
                # Maintenance doubles as the durability heartbeat: with
                # buffered logging the crash-loss window is bounded by
                # the maintenance interval, not the process lifetime.
                # A log grown well past the live state is rewritten first.
                if self.directory is not None:
                    state.memory.compact()
                    state.memory.sync()
        return compacted

    def sync(self) -> None:
        """Flush + fsync every tenant's log (shutdown barrier)."""
        for state in self._tenants.values():
            state.memory.sync()

    def close(self) -> None:
        """Durably flush and release every tenant's log descriptor."""
        for state in self._tenants.values():
            state.memory.close()

    def _compact_locked(
        self, state: TenantState, series: str, policy: RetentionPolicy
    ) -> int:
        count = state.memory.count(series)
        if count <= policy.compact_above:
            return 0
        # Only compaction resamples, and resampling needs numpy: a
        # server that never compacts never loads either.
        from repro.trace.resample import resample_mean
        from repro.trace.series import TraceSeries

        times, values = state.memory.fetch(series)
        split = len(times) - policy.keep_recent
        head = TraceSeries(series, "retention", times[:split], values[:split])
        if len(head) >= 2:
            # The grid starts at the prefix's first stamp, so its last
            # point is <= the prefix's last stamp <= the raw tail's first
            # stamp: the spliced history stays non-decreasing.
            head = resample_mean(head, policy.period)
        new_times = list(head.times) + list(times[split:])
        new_values = list(head.values) + list(values[split:])
        state.memory.replace(series, new_times, new_values)
        # Reset the mixture so the next query replays exactly the
        # retained (compacted) history: forecasts stay a pure function
        # of what recover() would reload, which is what makes a
        # crash-restored server byte-identical to this one.
        state.forecaster.invalidate(series)
        self._obs_compactions.inc()
        self._obs_compacted.inc(count - len(new_times))
        return 1
