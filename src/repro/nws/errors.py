"""Typed errors for the NWS service layer.

This is the error taxonomy the client/server wire format maps to HTTP
status codes and back (see :mod:`repro.nws.wire`): every exception a
transport can surface has one typed class here (or in
:mod:`repro.faults.policy` for :class:`~repro.faults.RetryError`), so
callers branch on meaning rather than on strings or status numbers.
"""

from __future__ import annotations

__all__ = [
    "SeriesUnavailable",
    "RegistrationLapsed",
    "UnknownTenant",
    "ServerOverloaded",
]


class SeriesUnavailable(LookupError):
    """A series is unknown to the memory or no longer retained.

    Raised by :meth:`~repro.nws.memory.MemoryStore.fetch` for series that
    were never published or have been forgotten, and by
    :class:`~repro.nws.forecaster.ForecasterService` when a query cannot
    even be served from a last-known-good forecast.  Deliberately a
    :class:`LookupError` but *not* a :class:`KeyError`: callers should
    branch on data availability, not on dictionary plumbing.

    Over HTTP this maps to ``404 series_unavailable``.

    Attributes
    ----------
    series:
        The requested series name.
    known:
        Series the memory does hold (sorted).
    """

    def __init__(self, series: str, known=()):
        self.series = series
        self.known = tuple(known)
        super().__init__(
            f"series {series!r} unavailable; known series: {list(self.known)}"
        )


class RegistrationLapsed(LookupError):
    """A name-server registration is unknown or its TTL has expired.

    Raised by :meth:`~repro.nws.nameserver.NameServer.refresh` and
    :meth:`~repro.nws.nameserver.NameServer.get`: a lapsed registration
    is the NWS's crash signal, and callers must branch on it explicitly
    (re-register, mark the component dead) rather than pattern-match a
    generic :class:`KeyError`.

    Over HTTP this maps to ``410 registration_lapsed`` -- the component
    was (or may have been) registered once, and is gone now.

    Attributes
    ----------
    name:
        The component name whose registration lapsed.
    """

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no live registration for component {name!r}")


class UnknownTenant(LookupError):
    """The requested tenant is not served by this deployment.

    Raised by a :class:`~repro.nws.service.ServiceCore` whose tenant set
    is closed (an explicit allowlist was configured) when an operation
    names a tenant outside it.  Over HTTP this maps to
    ``403 unknown_tenant``.

    Attributes
    ----------
    tenant:
        The rejected tenant name.
    known:
        Tenants the deployment does serve (sorted).
    """

    def __init__(self, tenant: str, known=()):
        self.tenant = tenant
        self.known = tuple(known)
        super().__init__(
            f"tenant {tenant!r} not served here; known tenants: {list(self.known)}"
        )


class ServerOverloaded(RuntimeError):
    """The server shed this request instead of serving it.

    Raised when admission control rejects a request (too many in flight,
    the server is draining for shutdown), when the request's propagated
    deadline expired before the work completed, or when a publish found
    no file descriptor to log its sample (and so kept nothing).
    Deliberately a :class:`RuntimeError`, not a
    :class:`LookupError`/:class:`ValueError`:
    nothing is wrong with the request itself -- retrying after
    ``retry_after`` seconds is the correct response, and
    :class:`~repro.nws.client.NWSClient` does exactly that.

    Over HTTP this maps to ``429 overloaded`` with a ``Retry-After``
    header.

    Attributes
    ----------
    reason:
        Why the request was shed: ``"overload"`` (in-flight bound),
        ``"draining"`` (graceful shutdown), ``"deadline"`` (the
        client's budget expired), or ``"descriptors"`` (the process is
        out of file descriptors; see
        :meth:`~repro.nws.memory.MemoryStore.publish`).
    retry_after:
        Suggested wait before retrying, in seconds.
    """

    def __init__(
        self,
        message: str = "server overloaded",
        *,
        reason: str = "overload",
        retry_after: float = 0.05,
    ):
        self.reason = str(reason)
        self.retry_after = float(retry_after)
        super().__init__(message)
