"""NWS name server: component registration and discovery.

Every NWS component registers itself under a hierarchical name with
attributes and a time-to-live; clients look components up by kind and
attribute filters.  Registrations must be refreshed before their TTL
lapses or they expire -- the NWS's crash-detection mechanism, reproduced
here against the simulated clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.nws.errors import RegistrationLapsed, coerce_field
from repro.obs.metrics import get_registry

__all__ = ["NameServer", "Registration", "text_attributes"]


def text_attributes(value) -> dict[str, str]:
    """Registration attributes: a mapping, its keys and values as text.

    The cast of an ``attributes`` field, in the core and on the wire
    alike, so ``{"port": 5}`` is ``{"port": "5"}`` on both paths.
    """
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return {str(k): str(v) for k, v in value.items()}


@dataclass(frozen=True)
class Registration:
    """One registered component.

    Attributes
    ----------
    name:
        Unique hierarchical name (e.g. ``"sensor.cpu.thing1"``).
    kind:
        Component kind: ``"sensor"``, ``"memory"``, ``"forecaster"``.
    attributes:
        Free-form key/value metadata (host, resource, method, ...).
    expires_at:
        Simulated time at which the registration lapses.
    """

    name: str
    kind: str
    attributes: dict[str, str] = field(default_factory=dict)
    expires_at: float = float("inf")


class NameServer:
    """In-process NWS name server with TTL-based liveness.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time;
        defaults to a constant 0.0 (registrations never expire unless a
        TTL is used together with a real clock).
    log:
        Optional :class:`~repro.nws.durable.TenantLog`: each register,
        refresh and unregister appends its record there before it
        changes the entries, so one that cannot be logged changes
        nothing.
    """

    KINDS = ("sensor", "memory", "forecaster")

    def __init__(self, clock=None, log=None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._log = log
        # Registrations arrive from per-host refresh threads while lookups
        # run on the main path; the entry map is always accessed under
        # this lock.
        self._lock = threading.Lock()
        self._entries: dict[str, Registration] = {}
        registry = get_registry()
        self._obs_registrations = registry.counter(
            "repro_nameserver_registrations_total"
        )
        self._obs_lookups = registry.counter("repro_nameserver_lookups_total")
        self._obs_expirations = registry.counter(
            "repro_nameserver_expirations_total"
        )
        registry.register_callback(
            lambda r: r.gauge("repro_nameserver_registrations_live").set(len(self))
        )

    def register(
        self,
        name: str,
        kind: str,
        attributes: dict[str, str] | None = None,
        *,
        ttl: float | None = None,
    ) -> Registration:
        """Register (or refresh) a component.

        Parameters
        ----------
        name:
            Unique component name; re-registering refreshes TTL and
            replaces attributes.
        kind:
            One of :data:`KINDS`.
        attributes:
            Metadata used by :meth:`lookup` filters.
        ttl:
            Seconds until expiry (None = never expires).
        """
        coerce_field("name", str, name)
        if kind not in self.KINDS:
            raise ValueError(f"unknown component kind {kind!r}; use {self.KINDS}")
        if ttl is not None and ttl <= 0.0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        expires = float("inf") if ttl is None else self._clock() + ttl
        entry = Registration(
            name=name,
            kind=kind,
            attributes=text_attributes(attributes or {}),
            expires_at=expires,
        )
        with self._lock:
            if self._log is not None:
                self._log.register(entry)
            self._entries[name] = entry
        self._obs_registrations.inc()
        return entry

    def refresh(self, name: str, *, ttl: float) -> Registration:
        """Extend a live registration's TTL.

        Raises
        ------
        RegistrationLapsed
            If the component is unknown or already expired -- the same
            typed error the HTTP ``410`` path maps to, so a client that
            missed its refresh window sees one failure mode whether the
            name server is an object or a socket away.
        """
        with self._lock:
            entry = self._require_live_locked(name)
            refreshed = replace(entry, expires_at=self._clock() + ttl)
            if self._log is not None:
                self._log.refresh(refreshed)
            self._entries[name] = refreshed
        return refreshed

    def unregister(self, name: str) -> None:
        """Remove a registration (idempotent)."""
        with self._lock:
            if self._log is not None and name in self._entries:
                self._log.unregister(name)
            self._entries.pop(name, None)

    def _require_live(self, name: str) -> Registration:
        with self._lock:
            return self._require_live_locked(name)

    def _require_live_locked(self, name: str) -> Registration:
        entry = self._entries.get(name)
        if entry is None or entry.expires_at <= self._clock():
            raise RegistrationLapsed(name)
        return entry

    def lookup(
        self, kind: str | None = None, /, **attribute_filters: str
    ) -> list[Registration]:
        """Find live components by kind and exact attribute matches.

        ``kind`` is positional-only, so an attribute may be called
        ``kind`` too.

        Expired entries are purged as a side effect (the NWS name server
        garbage-collects lapsed registrations on search).
        """
        now = self._clock()
        self._obs_lookups.inc()
        with self._lock:
            dead = [n for n, e in self._entries.items() if e.expires_at <= now]
            for n in dead:
                del self._entries[n]
            live = list(self._entries.values())
        if dead:
            self._obs_expirations.inc(len(dead))
        out = []
        for entry in live:
            if kind is not None and entry.kind != kind:
                continue
            if any(entry.attributes.get(k) != v for k, v in attribute_filters.items()):
                continue
            out.append(entry)
        return sorted(out, key=lambda e: e.name)

    def get(self, name: str) -> Registration:
        """Fetch one live registration by name.

        Raises :class:`~repro.nws.errors.RegistrationLapsed` when the
        component is unknown or its TTL has expired.
        """
        return self._require_live(name)

    # ----------------------------------------------------------- snapshot

    def entries(self) -> list[Registration]:
        """Every registration (including expired), sorted by name.

        Expiry is preserved verbatim through the tenant log, so a server
        restored by :meth:`repro.nws.service.ServiceCore.restore` makes
        the same liveness decisions an uninterrupted one would.
        """
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.name)

    def restore(self, entries) -> int:
        """Re-insert registrations replayed from the tenant log.

        ``expires_at`` is preserved exactly (no TTL re-derivation); a
        registration that lapsed while the server was down stays lapsed.
        Nothing is logged (the entries came from the log), and entries
        with an unknown ``kind`` are skipped.  Returns the number
        restored.
        """
        restored = 0
        with self._lock:
            for entry in entries:
                if entry.kind not in self.KINDS:
                    continue
                self._entries[entry.name] = entry
                restored += 1
        return restored

    def __len__(self) -> int:
        now = self._clock()
        with self._lock:
            return sum(1 for e in self._entries.values() if e.expires_at > now)
