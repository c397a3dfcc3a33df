"""``repro.faults``: deterministic fault injection + resilience policies.

The paper's NWS ran on a departmental grid where sensors crash, publishes
go missing, and registrations lapse -- TTL expiry *is* its crash-detection
mechanism.  This package makes those conditions reproducible:

* :class:`FaultPlan` -- an immutable, chainable description of sensor
  dropouts, lost / delayed / duplicated publishes, crash windows, clock
  skew, and journal truncation / corruption.  Compiled per host with a
  seed derived from ``(seed, host_index)``, so faulted runs are
  bit-reproducible and byte-identical across worker counts.
* :class:`HostFaults` -- the compiled per-host injector driven by
  :class:`~repro.nws.sensorhost.SensorHost` from sim-clock hooks; every
  event is tallied as ``repro_faults_{injected,absorbed,failed}_total``.
* :class:`RetryPolicy` -- bounded, seeded exponential backoff with
  injected sleeping; the one sanctioned retry primitive for the service
  layer (``tests/test_invariants.py`` scans for hand-rolled ones).
* :class:`CircuitBreaker` -- seeded closed/open/half-open breaker with a
  probe budget, layered *outside* retries by
  :class:`~repro.nws.client.NWSClient` so a dead server fails fast
  instead of being hammered.
* :func:`named_plans` -- built-in scenarios used by ``nws-repro chaos``
  and :mod:`repro.experiments.chaos`.

Install a plan by constructing the system with it::

    from repro.faults import named_plan
    from repro.nws import NWSSystem

    system = NWSSystem(["thing1"], seed=7, fault_plan=named_plan("dropout10"))
    system.advance(3600.0)

With ``fault_plan=None`` (the default) none of the hooks are installed
and the service layer runs its original fast path.
"""

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    HostFaults,
    named_plan,
    named_plans,
)
from repro.faults.policy import (
    CircuitBreaker,
    CircuitOpenError,
    RetryError,
    RetryPolicy,
    seed_entropy,
)

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultPlan",
    "FaultSpec",
    "HostFaults",
    "RetryError",
    "RetryPolicy",
    "named_plan",
    "named_plans",
    "seed_entropy",
]
