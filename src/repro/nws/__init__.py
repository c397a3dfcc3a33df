"""The Network Weather Service architecture (paper references [29-31]).

The paper's forecasts are produced by the NWS -- "a distributed, on-line
performance forecasting system" -- whose architecture (Wolski et al.,
FGCS '98) has four component kinds:

* **sensors** that take measurements on the monitored resources;
* a **name server** where components register and are discovered;
* **memories** that hold bounded measurement histories persistently;
* **forecasters** that fetch histories from memory and answer prediction
  queries.

This subpackage reproduces that architecture both in-process and as a
long-running service:

* :class:`~repro.nws.system.NWSSystem` monitors a grid of simulated
  hosts: one sensor per host publishes into, and registers with, a
  tenant of a :class:`~repro.nws.service.ServiceCore`, which owns the
  :class:`~repro.nws.memory.MemoryStore`,
  :class:`~repro.nws.nameserver.NameServer` and
  :class:`~repro.nws.forecaster.ForecasterService`.
* :class:`~repro.nws.client.NWSClient` is the **one public API** over
  all of it: the same keyword-normalized ``publish`` / ``fetch`` /
  ``query`` / ``register`` surface whether it calls a shared
  :class:`~repro.nws.service.ServiceCore` in process or speaks
  the versioned JSON wire format of :mod:`repro.nws.wire` to a
  :class:`~repro.nws.server.ForecastServer` (a multi-tenant threading
  TCP server with its own lean HTTP/1.1 framing, one write per message
  on both ends; see ``nws-repro serve``).
* :mod:`repro.nws.loadtest` drives either form with a seeded,
  byte-reproducible load test (see ``nws-repro loadtest``).

Faithfulness notes: real NWS components are separate Unix processes
speaking TCP; the in-process form keeps the same registration/lookup/
publish/query protocol while staying testable and deterministic, and the
HTTP form restores the process boundary -- sockets, typed error
envelopes, TTL'd liveness -- without changing a single payload (both
forms execute the same :class:`~repro.nws.service.ServiceCore`).
"""

from repro._exports import lazy_exports

__all__ = [
    "ForecastReport",
    "ForecastServer",
    "ForecasterService",
    "HTTPTransport",
    "MemoryStore",
    "NWSClient",
    "NWSSystem",
    "NameServer",
    "Registration",
    "RegistrationLapsed",
    "RetentionPolicy",
    "SensorHost",
    "SeriesUnavailable",
    "ServerOverloaded",
    "ServiceCore",
    "UnknownTenant",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.nws.client": ("HTTPTransport", "NWSClient"),
        "repro.nws.errors": (
            "RegistrationLapsed",
            "SeriesUnavailable",
            "ServerOverloaded",
            "UnknownTenant",
        ),
        "repro.nws.forecaster": ("ForecastReport", "ForecasterService"),
        "repro.nws.memory": ("MemoryStore",),
        "repro.nws.nameserver": ("NameServer", "Registration"),
        "repro.nws.sensorhost": ("SensorHost",),
        "repro.nws.server": ("ForecastServer",),
        "repro.nws.service": ("RetentionPolicy", "ServiceCore"),
        "repro.nws.system": ("NWSSystem",),
    },
)
