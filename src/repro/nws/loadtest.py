"""Deterministic load-test harness for the NWS forecast service.

The harness drives an :class:`~repro.nws.client.NWSClient` -- either
transport -- with a seeded synthetic workload and produces a report that
is **byte-identical for the same seed**, across reruns, across
``--jobs`` thread counts, and across transports.  Three design rules
make that hold:

* **Disjoint ownership.**  The op plan is generated up front from the
  seed: each synthetic client owns its own series, its own registration
  and its own data clock, so no response ever depends on how concurrent
  clients interleave.
* **Simulated cost, not wall cost.**  Reported "latency" is a
  deterministic cost model (a per-op base plus a per-sample charge
  computed from the actual response payload), identical whether the
  transport was a method call or a socket.  Wall-clock throughput is
  still measured -- it just flows to stderr, never into the report
  body.
* **Canonical digests.**  Every response is re-encoded through
  :mod:`repro.nws.wire` and folded into a per-client SHA-256; client
  digests combine in client order.  Equal digests across transports are
  the proof that in-process and HTTP answers are payload-identical.

Ops arrive in heavy-tailed ON/OFF bursts drawn from
:mod:`repro.workload.distributions` (Pareto bursts, exponential
inter-op gaps) -- the same session shape the paper's workload model
uses -- so the server sees realistically bursty load rather than a
uniform drizzle.  A :class:`~repro.faults.FaultPlan` can be attached
(``chaos=<plan name>``): each client compiles the plan with its own
seeded stream and routes publishes through it, which makes the chaos
plans from the resilience PR double as the server's availability suite.

**Load shedding does not perturb the digest.**  A server running with
``max_inflight`` may shed requests with
:class:`~repro.nws.errors.ServerOverloaded` (HTTP 429).  Each synthetic
client retries *only* sheds through its own seeded
:class:`~repro.faults.RetryPolicy` (real ``time.sleep`` backoff, since
shedding is a wall-clock phenomenon) until the op lands, so the
responses folded into the digest are the same whether the server shed
zero times or a thousand.  The retry tally is reported as
``shed_retries`` -- a wall-side measurement, deliberately excluded from
:func:`render` and the digest, exactly like ``wall_seconds``.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import FaultPlan, HostFaults, named_plan
from repro.faults.policy import RetryError, RetryPolicy, seed_entropy
from repro.nws.errors import (
    RegistrationLapsed,
    SeriesUnavailable,
    ServerOverloaded,
    UnknownTenant,
)
from repro.nws.wire import (
    canonical,
    code_for_exception,
    encode_fetch,
    encode_registration,
    encode_report,
)
from repro.workload.distributions import Exponential, Pareto

__all__ = ["LoadtestConfig", "LoadtestReport", "build_plans", "run_loadtest", "render"]

#: Domain separator (b"LOAD") keeping loadtest draws independent of every
#: other stream derived from the same root seed.
_LOAD_STREAM = 0x4C4F4144

#: Domain separator (b"SHED") for the per-client shed-retry jitter.
_SHED_STREAM = 0x53484544

#: Simulated per-op base cost (milliseconds) and per-returned-sample
#: charge.  Chosen to resemble localhost HTTP round-trips; what matters
#: is that they are constants, so equal payloads cost equal latencies in
#: process and over HTTP.
_BASE_COST_MS = {
    "publish": 0.35,
    "query": 0.8,
    "fetch": 0.5,
    "register": 0.4,
    "refresh": 0.3,
    "lookup": 0.45,
    "recover": 1.2,
    "dropped": 0.0,
}
_PER_SAMPLE_MS = 0.002

#: TTL used for loadtest registrations: effectively immortal, so reports
#: never depend on when (in wall time) a client got scheduled.
_LOADTEST_TTL = 1.0e12

_TYPED_ERRORS = (
    SeriesUnavailable,
    RegistrationLapsed,
    UnknownTenant,
    RetryError,
    LookupError,
    ValueError,
)


@dataclass(frozen=True)
class LoadtestConfig:
    """Shape of one load test.

    Attributes
    ----------
    series:
        Concurrent series across all clients (the acceptance floor is
        1000).
    clients:
        Synthetic clients; series are dealt round-robin, so each client
        owns a disjoint subset.
    operations:
        Total operations across all clients.
    seed:
        Root seed; every client derives an independent substream.
    jobs:
        Worker threads executing clients (pure throughput knob: the
        report is identical for any value).
    tenants:
        Tenants addressed; clients are dealt round-robin across them.
    chaos:
        Optional named :func:`~repro.faults.plan.named_plan`; each
        client routes its publishes through a per-client compilation.
    horizon:
        Forecast horizon used by query ops.
    """

    series: int = 1000
    clients: int = 16
    operations: int = 20000
    seed: int = 0
    jobs: int = 1
    tenants: tuple[str, ...] = ("default",)
    chaos: str | None = None
    horizon: int = 1

    def __post_init__(self):
        if self.series < 1 or self.clients < 1 or self.operations < 1:
            raise ValueError("series, clients and operations must be >= 1")
        if self.clients > self.series:
            raise ValueError(
                f"more clients ({self.clients}) than series ({self.series})"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class _Op:
    """One planned operation (args fixed at plan time)."""

    kind: str
    time: float = 0.0
    series: str = ""
    value: float = 0.0
    limit: int = 0
    horizon: int = 1
    name: str = ""


@dataclass
class _ClientPlan:
    index: int
    tenant: str
    registration: str
    ops: list[_Op] = field(default_factory=list)
    faults: HostFaults | None = None


@dataclass
class LoadtestReport:
    """Everything :func:`render` prints, plus wall-clock extras.

    The deterministic fields (everything except ``wall_seconds`` /
    ``wall_rps`` / ``shed_retries``) are byte-stable for a fixed config
    seed; the wall fields are measurement, reported only via stderr.
    ``shed_retries`` counts how often shed ops (HTTP 429) had to be
    retried before landing -- it depends on server load, so it is
    wall-side too.
    """

    series: int
    clients: int
    operations: int
    seed: int
    jobs: int
    chaos: str | None
    op_counts: dict[str, int]
    error_counts: dict[str, int]
    fault_counts: dict[str, int]
    cost_ms: dict[str, dict[str, float]]
    sim_duration: float
    sim_rps: float
    digest: str
    wall_seconds: float
    wall_rps: float
    shed_retries: int = 0


# ---------------------------------------------------------------- planning


def build_plans(config: LoadtestConfig) -> list[_ClientPlan]:
    """The full seeded op schedule, one plan per synthetic client."""
    per_client: list[list[str]] = [[] for _ in range(config.clients)]
    for i in range(config.series):
        per_client[i % config.clients].append(f"load.{i:05d}")
    counts = [
        config.operations // config.clients
        + (1 if c < config.operations % config.clients else 0)
        for c in range(config.clients)
    ]
    chaos_plan: FaultPlan | None = (
        named_plan(config.chaos) if config.chaos is not None else None
    )
    burst_len = Pareto(1.6, 4.0)
    gap = Exponential(2.0)
    think = Pareto(1.6, 20.0)
    plans = []
    for c in range(config.clients):
        rng = np.random.default_rng(
            np.random.SeedSequence((*seed_entropy(config.seed), c, _LOAD_STREAM))
        )
        tenant = config.tenants[c % len(config.tenants)]
        owned = per_client[c]
        registration = f"sensor.load.{c:03d}"
        plan = _ClientPlan(index=c, tenant=tenant, registration=registration)
        if chaos_plan is not None:
            plan.faults = chaos_plan.compile(
                seed=config.seed, host_index=c, host=registration
            )
        plan.ops.append(_Op("register", name=registration))
        t = 0.0
        remaining = counts[c]
        bursts = 0
        while remaining > 0:
            bursts += 1
            for _ in range(min(remaining, max(1, int(burst_len.sample(rng))))):
                t += gap.sample(rng)
                series = owned[int(rng.integers(len(owned)))]
                roll = rng.random()
                if roll < 0.70:
                    op = _Op("publish", time=t, series=series, value=float(rng.random()))
                elif roll < 0.88:
                    op = _Op(
                        "query", time=t, series=series, horizon=config.horizon
                    )
                elif roll < 0.97:
                    op = _Op(
                        "fetch",
                        time=t,
                        series=series,
                        limit=int(rng.integers(4, 64)),
                    )
                elif roll < 0.99:
                    op = _Op("refresh", time=t, name=registration)
                else:
                    op = _Op("lookup", time=t, name=registration)
                plan.ops.append(op)
                remaining -= 1
            t += think.sample(rng)
        plans.append(plan)
    return plans


# --------------------------------------------------------------- execution


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[rank]


def _publish_guarded(client, faults, series: str, stamped: float, value: float) -> int:
    """One delivery; out-of-order rejections are absorbed under chaos.

    Mirrors the sensor host's resilience policy: a delayed publish that
    lands behind the series head violates the memory's ordering contract
    by design, so with faults attached it is tallied as absorbed rather
    than surfaced.  Returns the retained count (-1 when absorbed).
    """
    try:
        return client.publish(series, time=stamped, value=value)
    except ValueError:
        if faults is None:
            raise
        faults.tally("absorbed", "stale_publish_dropped")
        return -1


def _execute_op(op: _Op, client, plan: _ClientPlan) -> tuple[bytes, float]:
    """Run one op; returns (canonical response bytes, simulated cost ms)."""
    faults = plan.faults
    if op.kind == "publish":
        if faults is not None:
            if faults.crashed(op.time):
                faults.crash_drop()
                return canonical({"dropped": op.series}), _BASE_COST_MS["dropped"]
            deliveries = [
                (series, stamped, value)
                for series, stamped, value in faults.flush(op.time)
            ]
            deliveries += [
                (op.series, stamped, value)
                for stamped, value in faults.route(op.series, op.time, op.value)
            ]
        else:
            deliveries = [(op.series, op.time, op.value)]
        count = 0
        for series, stamped, value in deliveries:
            count = _publish_guarded(client, faults, series, stamped, value)
        payload = {"series": op.series, "count": count, "delivered": len(deliveries)}
        cost = _BASE_COST_MS["publish"] * max(1, len(deliveries))
        return canonical(payload), cost
    if op.kind == "query":
        report = client.query(op.series, horizon=op.horizon)
        payload = encode_report(report)
        cost = _BASE_COST_MS["query"] + _PER_SAMPLE_MS * report.n_measurements
        return canonical(payload), cost
    if op.kind == "fetch":
        times, values = client.fetch(op.series, limit=op.limit)
        payload = encode_fetch(op.series, times, values)
        cost = _BASE_COST_MS["fetch"] + _PER_SAMPLE_MS * len(times)
        return canonical(payload), cost
    if op.kind == "register":
        registration = client.register(
            op.name,
            "sensor",
            {"host": op.name, "resource": "cpu"},
            ttl=_LOADTEST_TTL,
        )
        return canonical(encode_registration(registration)), _BASE_COST_MS["register"]
    if op.kind == "refresh":
        registration = client.refresh(op.name, ttl=_LOADTEST_TTL)
        return canonical(encode_registration(registration)), _BASE_COST_MS["refresh"]
    if op.kind == "lookup":
        entries = client.lookup("sensor", host=op.name)
        payload = {
            "registrations": [encode_registration(e) for e in entries],
        }
        cost = _BASE_COST_MS["lookup"] + _PER_SAMPLE_MS * len(entries)
        return canonical(payload), cost
    raise ValueError(f"unknown op kind {op.kind!r}")


def _shed_policy(config: LoadtestConfig, plan: _ClientPlan) -> RetryPolicy:
    """The per-client retry policy that absorbs server load shedding.

    Backoff sleeps on the real clock (shedding is a wall phenomenon) but
    draws its jitter from a per-client seeded stream, so two clients
    sharing a root seed still de-synchronize their retry stampede
    reproducibly.  The budget (16 retries, capped at 100 ms apiece) far
    exceeds any drain or overload window the harness creates; exhaustion
    surfaces as ``retry_exhausted`` in the digest rather than hanging.
    """
    return RetryPolicy(
        retries=16,
        base_delay=0.002,
        factor=2.0,
        max_delay=0.1,
        jitter=0.5,
        seed=(*seed_entropy(config.seed), plan.index, _SHED_STREAM),
        sleep=time.sleep,
    )


def _shed_classified(op: _Op, client, plan: _ClientPlan) -> tuple[str, object]:
    """One attempt, classified for the shed-retry policy.

    :meth:`RetryPolicy.call` retries on any ``Exception``, but only a
    shed (:class:`~repro.nws.errors.ServerOverloaded`) should consume
    retry budget -- a typed application error is a deterministic answer,
    not a transient.  So sheds re-raise (retryable) and every other
    exception tunnels out as a ``("raise", exc)`` value for the caller
    to re-raise untouched.
    """
    try:
        return "ok", _execute_op(op, client, plan)
    except ServerOverloaded:
        raise
    except Exception as exc:
        return "raise", exc


def _run_client(plan: _ClientPlan, client, shed_retry: RetryPolicy | None = None) -> dict:
    digest = hashlib.sha256()
    costs: dict[str, list[float]] = {}
    op_counts: dict[str, int] = {}
    error_counts: dict[str, int] = {}
    for op in plan.ops:
        try:
            try:
                # Optimistic fast path: the retry machinery costs more
                # than an in-process op, so it is engaged only after the
                # server actually shed this request.
                payload, cost = _execute_op(op, client, plan)
            except ServerOverloaded:
                if shed_retry is None:
                    raise
                kind, value = shed_retry.call(
                    _shed_classified,
                    op,
                    client,
                    plan,
                    describe=f"loadtest {op.kind}",
                )
                if kind == "raise":
                    raise value
                payload, cost = value
        except _TYPED_ERRORS as exc:
            code = code_for_exception(exc)
            error_counts[code] = error_counts.get(code, 0) + 1
            payload = canonical({"error": code, "op": op.kind, "series": op.series})
            cost = _BASE_COST_MS[op.kind]
        digest.update(payload)
        op_counts[op.kind] = op_counts.get(op.kind, 0) + 1
        costs.setdefault(op.kind, []).append(cost)
    duration = plan.ops[-1].time if plan.ops else 0.0
    fault_counts: dict[str, int] = {}
    if plan.faults is not None:
        for (outcome, kind), n in plan.faults.tallies.items():
            fault_counts[f"{outcome}.{kind}"] = n
    return {
        "digest": digest.hexdigest(),
        "costs": costs,
        "op_counts": op_counts,
        "error_counts": error_counts,
        "fault_counts": fault_counts,
        "duration": duration,
    }


def run_loadtest(client_factory, config: LoadtestConfig) -> LoadtestReport:
    """Execute the seeded plan and aggregate the deterministic report.

    Parameters
    ----------
    client_factory:
        ``client_factory(tenant) -> NWSClient``; called once per
        synthetic client.  Clients over one shared transport are fine --
        each synthetic client owns disjoint series, so interleaving
        never changes a response.
    config:
        The :class:`LoadtestConfig`.
    """
    plans = build_plans(config)
    policies = [_shed_policy(config, plan) for plan in plans]
    started = time.perf_counter()
    if config.jobs == 1:
        results = [
            _run_client(plan, client_factory(plan.tenant), policy)
            for plan, policy in zip(plans, policies)
        ]
    else:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [
                pool.submit(_run_client, plan, client_factory(plan.tenant), policy)
                for plan, policy in zip(plans, policies)
            ]
            results = [f.result() for f in futures]
    wall = time.perf_counter() - started

    combined = hashlib.sha256()
    op_counts: dict[str, int] = {}
    error_counts: dict[str, int] = {}
    fault_counts: dict[str, int] = {}
    costs: dict[str, list[float]] = {}
    duration = 0.0
    for result in results:
        combined.update(result["digest"].encode("ascii"))
        for k, v in result["op_counts"].items():
            op_counts[k] = op_counts.get(k, 0) + v
        for k, v in result["error_counts"].items():
            error_counts[k] = error_counts.get(k, 0) + v
        for k, v in result["fault_counts"].items():
            fault_counts[k] = fault_counts.get(k, 0) + v
        for k, v in result["costs"].items():
            costs.setdefault(k, []).extend(v)
        duration = max(duration, result["duration"])

    cost_ms: dict[str, dict[str, float]] = {}
    everything: list[float] = []
    for kind in sorted(costs):
        values = sorted(costs[kind])
        everything.extend(values)
        cost_ms[kind] = {
            "p50": _percentile(values, 50.0),
            "p99": _percentile(values, 99.0),
        }
    everything.sort()
    cost_ms["all"] = {
        "p50": _percentile(everything, 50.0),
        "p99": _percentile(everything, 99.0),
    }
    total_ops = sum(op_counts.values())
    return LoadtestReport(
        series=config.series,
        clients=config.clients,
        operations=config.operations,
        seed=config.seed,
        jobs=config.jobs,
        chaos=config.chaos,
        op_counts=dict(sorted(op_counts.items())),
        error_counts=dict(sorted(error_counts.items())),
        fault_counts=dict(sorted(fault_counts.items())),
        cost_ms=cost_ms,
        sim_duration=duration,
        sim_rps=(total_ops / duration if duration > 0.0 else 0.0),
        digest=combined.hexdigest(),
        wall_seconds=wall,
        wall_rps=(total_ops / wall if wall > 0.0 else 0.0),
        shed_retries=sum(policy.retries_used for policy in policies),
    )


# --------------------------------------------------------------- rendering


def render(report: LoadtestReport) -> str:
    """The deterministic report table (byte-identical for equal seeds).

    Wall-clock numbers are deliberately absent: they belong to stderr,
    never to the comparable artifact.
    """
    lines = [
        "nws loadtest report",
        f"  series={report.series} clients={report.clients} "
        f"operations={report.operations} seed={report.seed} "
        f"chaos={report.chaos or 'none'}",
        "",
        f"  {'op':<10} {'count':>8} {'p50 ms':>9} {'p99 ms':>9}",
    ]
    for kind in sorted(report.op_counts):
        stats = report.cost_ms.get(kind, {"p50": 0.0, "p99": 0.0})
        lines.append(
            f"  {kind:<10} {report.op_counts[kind]:>8} "
            f"{stats['p50']:>9.3f} {stats['p99']:>9.3f}"
        )
    overall = report.cost_ms["all"]
    total = sum(report.op_counts.values())
    lines.append(
        f"  {'all':<10} {total:>8} {overall['p50']:>9.3f} {overall['p99']:>9.3f}"
    )
    lines.append("")
    if report.error_counts:
        lines.append("  errors (typed, counted into the digest):")
        for code, n in report.error_counts.items():
            lines.append(f"    {code:<24} {n:>8}")
    else:
        lines.append("  errors: none")
    if report.fault_counts:
        lines.append(f"  chaos tallies ({report.chaos}):")
        for key, n in report.fault_counts.items():
            lines.append(f"    {key:<32} {n:>8}")
    lines.append(
        f"  simulated: {report.sim_duration:.3f} s at {report.sim_rps:.3f} req/s"
    )
    lines.append(f"  digest: {report.digest}")
    return "\n".join(lines) + "\n"
