"""Shared data plane of the NWS forecast service.

:class:`ServiceCore` owns the per-tenant NWS triples (memory + forecaster
+ name server) and implements every operation the public API exposes:
publish, fetch, query, register/refresh/lookup, recovery and retention
maintenance.  Both transports execute *this* code --
:class:`~repro.nws.client.InProcessTransport` calls it directly and
:class:`~repro.nws.server.ForecastServer` calls it from HTTP handlers --
so in-process and over-the-wire behaviour cannot diverge: same
validation, same typed errors, same metrics.

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
directory --

::

    <directory>/
        MANIFEST.json              # {"state_version", "tenants"}
        <tenant>/series.json       # series catalog (see MemoryStore)
        <tenant>/<series>.jsonl    # per-series write-ahead journal
        <tenant>/registrations.json

and :meth:`ServiceCore.restore` rebuilds an equivalent core from it:
journals replay through fresh forecaster mixtures, so a restarted
server's forecasts are byte-identical to an uninterrupted run's
(compaction calls :meth:`ForecasterService.invalidate`, which makes
every forecast a pure function of *retained* history -- provided
retention compacts below the memory capacity so silent eviction never
outruns the checkpointed journal).
"""

from __future__ import annotations

import json
import threading
import time as _time
from dataclasses import dataclass
from pathlib import Path

from repro.nws.durable import atomic_replace_json
from repro.nws.errors import ServerOverloaded, UnknownTenant
from repro.nws.forecaster import ForecastReport, ForecasterService
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer, Registration
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.trace.resample import resample_mean
from repro.trace.series import TraceSeries

__all__ = [
    "RetentionPolicy",
    "ServiceCore",
    "TenantState",
    "coerce_field",
    "request_deadline",
    "set_request_deadline",
]

#: Default tenant name -- single-tenant callers never need to know
#: tenancy exists.
DEFAULT_TENANT = "default"

#: On-disk state layout version checked by :meth:`ServiceCore.restore`.
STATE_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
REGISTRATIONS_NAME = "registrations.json"

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


def coerce_field(name: str, cast, value):
    """``cast(value)``, or a ``ValueError`` naming the field.

    The one numeric check every path runs -- the HTTP client transport
    before sending, the server on request fields, :class:`ServiceCore`
    on its arguments -- so a bad value, including one beyond float or
    int range (which Python reports as ``OverflowError``), is the same
    ``ValueError`` (wire ``bad_request``) in process and over HTTP,
    never an ``internal`` error.
    """
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad value for field {name!r}: {exc}") from exc


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
        self.nameserver = NameServer(clock=clock)
        # MemoryStore and NameServer lock internally, but the forecaster's
        # incremental per-series state does not -- concurrent HTTP queries
        # for one tenant serialize here.
        self.lock = threading.Lock()
        # Serializes registration snapshots with their writes, so
        # concurrent register/refresh calls never share a temp file.
        self.registration_lock = threading.Lock()


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
        subdirectory per tenant so journals never collide.  With a
        directory set the core also maintains ``MANIFEST.json`` and
        per-tenant registration snapshots so :meth:`restore` can rebuild
        the whole deployment.
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
                tenant_dir = self.directory / name
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
            atomic_replace_json(
                self.directory / MANIFEST_NAME,
                {"state_version": STATE_VERSION, "tenants": sorted(names)},
            )
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

        Reads ``MANIFEST.json`` for the tenant set, replays every
        tenant's journals through fresh forecaster mixtures
        (:meth:`MemoryStore.recover_all`), and re-installs registration
        snapshots with their original expiries.  Because compaction
        checkpoints the journal and invalidates forecaster state, the
        restored core's :meth:`query_all` output is byte-identical to an
        uninterrupted run's.

        Raises
        ------
        FileNotFoundError
            ``state_dir`` has no manifest (not a state directory).
        ValueError
            The manifest is not a JSON object whose ``tenants`` is a list
            of strings, or its ``state_version`` is from a different
            layout.
        """
        state_dir = Path(state_dir)
        manifest_path = state_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_NAME} under {state_dir}; "
                "not a forecast-service state directory"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{manifest_path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ValueError(f"{manifest_path} must hold a JSON object")
        version = manifest.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported state_version {version!r} "
                f"(this build reads {STATE_VERSION})"
            )
        tenants = manifest.get("tenants")
        if not isinstance(tenants, list) or not all(
            isinstance(name, str) for name in tenants
        ):
            raise ValueError(f"{manifest_path}: 'tenants' must be a list of strings")
        core = cls(
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
                recovered = state.memory.recover_all()
                registrations += core._restore_registrations(state)
            series += len(recovered)
            samples += sum(recovered.values())
        core._obs_restores.inc()
        core._obs_restored_series.inc(series)
        core._obs_restored_samples.inc(samples)
        core._obs_restored_registrations.inc(registrations)
        return core

    def _restore_registrations(self, state: TenantState) -> int:
        path = self.directory / state.name / REGISTRATIONS_NAME
        if not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            entries = [
                Registration(
                    name=str(r["name"]),
                    kind=str(r["kind"]),
                    attributes={
                        str(k): str(v)
                        for k, v in dict(r.get("attributes") or {}).items()
                    },
                    expires_at=(
                        float("inf")
                        if r.get("expires_at") is None
                        else float(r["expires_at"])
                    ),
                )
                for r in payload["registrations"]
            ]
        except (
            json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError, RecursionError,
        ):
            # Snapshot writes are atomic, so this only guards against a
            # foreign/hand-edited file (an oversized expires_at, say);
            # registrations are re-creatable state (components
            # re-register), so skip rather than abort.
            return 0
        return state.nameserver.restore(entries)

    def _persist_registrations(self, state: TenantState) -> None:
        if self.directory is None:
            return
        # Snapshot and write under one lock: the last write then always
        # holds the newest state, and no two writers share the temp file.
        with state.registration_lock:
            entries = [
                {
                    "name": e.name,
                    "kind": e.kind,
                    "attributes": dict(sorted(e.attributes.items())),
                    "expires_at": (
                        None if e.expires_at == float("inf") else e.expires_at
                    ),
                }
                for e in state.nameserver.entries()
            ]
            atomic_replace_json(
                self.directory / state.name / REGISTRATIONS_NAME,
                {"version": 1, "registrations": entries},
            )

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
        *,
        start: float = float("-inf"),
        stop: float = float("inf"),
        limit: int | None = None,
    ):
        """(times, values) arrays for a series window."""
        state = self.tenant(tenant)
        self._count("fetch")
        with get_tracer().span("server.fetch", tenant=tenant, series=series):
            return state.memory.fetch(
                series,
                start=coerce_field("start", float, start),
                stop=coerce_field("stop", float, stop),
                limit=None if limit is None else coerce_field("limit", int, limit),
            )

    def query(self, tenant: str, series: str, *, horizon: int = 1) -> ForecastReport:
        """One forecast with error bar, ``horizon`` steps ahead."""
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
        """Reload a series from the tenant's persistence journal."""
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
        *,
        ttl: float | None = None,
    ) -> Registration:
        state = self.tenant(tenant)
        self._count("register")
        with get_tracer().span("server.register", tenant=tenant, component=name):
            entry = state.nameserver.register(
                name,
                kind,
                attributes,
                ttl=None if ttl is None else coerce_field("ttl", float, ttl),
            )
        self._persist_registrations(state)
        return entry

    def refresh(self, tenant: str, name: str, *, ttl: float) -> Registration:
        state = self.tenant(tenant)
        self._count("refresh")
        with get_tracer().span("server.refresh", tenant=tenant, component=name):
            entry = state.nameserver.refresh(name, ttl=coerce_field("ttl", float, ttl))
        self._persist_registrations(state)
        return entry

    def lookup(
        self, tenant: str, kind: str | None = None, **attribute_filters: str
    ) -> list[Registration]:
        state = self.tenant(tenant)
        self._count("lookup")
        with get_tracer().span("server.lookup", tenant=tenant):
            return state.nameserver.lookup(kind, **attribute_filters)

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
                # buffered journaling the crash-loss window is bounded by
                # the maintenance interval, not the process lifetime.
                if self.directory is not None:
                    state.memory.sync()
        return compacted

    def sync(self) -> None:
        """Flush + fsync every tenant's journals (shutdown barrier)."""
        for state in self._tenants.values():
            state.memory.sync()

    def close(self) -> None:
        """Durably flush and release every tenant's journal handles."""
        for state in self._tenants.values():
            state.memory.close()

    def _compact_locked(
        self, state: TenantState, series: str, policy: RetentionPolicy
    ) -> int:
        count = state.memory.count(series)
        if count <= policy.compact_above:
            return 0
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
