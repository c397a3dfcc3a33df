"""Deterministic, seed-derived fault plans for the NWS service layer.

A :class:`FaultPlan` is an immutable description of what can go wrong on
a monitored grid: sensor dropouts, lost / delayed / duplicated publishes,
host crash + restart windows, clock skew, and persistence-journal
truncation or corruption.  Compiling a plan for one host yields a
:class:`HostFaults` injector with its own generator seeded from
``(seed, host_index)`` -- the same derivation every other per-host stream
uses -- so faulted runs are bit-reproducible and byte-identical across
``jobs=1`` and ``jobs=N``.

Fault semantics
---------------
* ``sensor_dropout`` -- the reading is lost at the sensor; the publish
  still happens, carrying NaN.  NaN is the wire format for a gap: the
  forecasters skip it (hold-last / skip-update, see
  :func:`repro.core.mixture.forecast_series`).
* ``publish_loss`` -- the publish never reaches the memory (a timestamp
  gap in the series).
* ``publish_delay`` -- the publish is buffered and delivered late with
  its *original* timestamp.  Deliveries that would arrive behind the
  series head are rejected by the memory's ordering contract and counted
  as absorbed.
* ``publish_duplicate`` -- the publish arrives twice.
* ``crash`` -- the host is down for ``[start, start + duration)``: no
  publishes, no registration refreshes (TTL expiry *is* the NWS crash
  detector), and buffered delayed publishes die with the process.
* ``clock_skew`` -- publish timestamps carry a constant offset while the
  spec is active.
* ``journal_truncate`` / ``journal_corrupt`` -- at a point in simulated
  time the on-disk tenant log is torn to a fraction of its bytes / has
  garbage lines appended, then :meth:`~repro.nws.memory.MemoryStore.
  recover` replays it (corrupt lines are skipped and tallied).

Every event is tallied three ways on the injector -- ``injected`` (a
fault fired), ``absorbed`` (a resilience policy handled one), ``failed``
(a fault could not be applied or handled) -- both as plain ints
(:attr:`HostFaults.tallies`) and as ``repro_faults_*_total`` counters on
the installed metrics registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.faults.policy import seed_entropy
from repro.obs.metrics import get_registry

__all__ = ["FaultSpec", "FaultPlan", "HostFaults", "named_plan", "named_plans"]

#: Domain separator (b"FAUL") keeping fault draws independent of host
#: workload streams derived from the same root seed.
_FAULT_STREAM = 0x4641554C

#: Per-publish stochastic kinds, in the order draws are made.
STOCHASTIC_KINDS = (
    "sensor_dropout",
    "publish_loss",
    "publish_delay",
    "publish_duplicate",
)
JOURNAL_KINDS = ("journal_truncate", "journal_corrupt")
KINDS = STOCHASTIC_KINDS + ("crash", "clock_skew") + JOURNAL_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One fault clause of a plan.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    host:
        Profile the clause applies to (None = every host).
    rate:
        Per-publish trigger probability (stochastic kinds only).
    start / stop:
        Activity window ``[start, stop)`` in simulated seconds; for
        journal kinds ``start`` is the (one-shot) event time.
    magnitude:
        Kind-specific scalar: max delay seconds, skew offset seconds,
        journal keep-fraction, or corrupt line count.
    """

    kind: str
    host: str | None = None
    rate: float = 0.0
    start: float = 0.0
    stop: float = math.inf
    magnitude: float = 0.0

    def applies_to(self, host: str) -> bool:
        return self.host is None or self.host == host

    def active(self, t: float) -> bool:
        return self.start <= t < self.stop


def _rate(rate: float) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return rate


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, chainable fault-plan builder.

    Every builder method returns a *new* plan, so plans compose and are
    safe to share / pickle into worker processes::

        plan = (
            FaultPlan("storm")
            .sensor_dropout(0.10)
            .publish_delay(0.05, max_delay=45.0)
            .crash(start=1800.0, duration=600.0, host="thing1")
        )
        faults = plan.compile(seed=7, host_index=0, host="thing1")
    """

    name: str = "unnamed"
    specs: tuple[FaultSpec, ...] = ()

    def _add(self, spec: FaultSpec) -> "FaultPlan":
        return replace(self, specs=(*self.specs, spec))

    def sensor_dropout(
        self, rate: float, *, host=None, start=0.0, stop=math.inf
    ) -> "FaultPlan":
        """Readings lost at the sensor with probability ``rate`` (NaN gap)."""
        return self._add(
            FaultSpec("sensor_dropout", host, _rate(rate), float(start), float(stop))
        )

    def publish_loss(
        self, rate: float, *, host=None, start=0.0, stop=math.inf
    ) -> "FaultPlan":
        """Publishes dropped on the wire with probability ``rate``."""
        return self._add(
            FaultSpec("publish_loss", host, _rate(rate), float(start), float(stop))
        )

    def publish_delay(
        self, rate: float, max_delay: float, *, host=None, start=0.0, stop=math.inf
    ) -> "FaultPlan":
        """Publishes held up to ``max_delay`` seconds with probability ``rate``."""
        if max_delay <= 0.0:
            raise ValueError(f"max_delay must be positive, got {max_delay}")
        return self._add(
            FaultSpec(
                "publish_delay",
                host,
                _rate(rate),
                float(start),
                float(stop),
                float(max_delay),
            )
        )

    def publish_duplicate(
        self, rate: float, *, host=None, start=0.0, stop=math.inf
    ) -> "FaultPlan":
        """Publishes delivered twice with probability ``rate``."""
        return self._add(
            FaultSpec(
                "publish_duplicate", host, _rate(rate), float(start), float(stop)
            )
        )

    def crash(self, start: float, duration: float, *, host=None) -> "FaultPlan":
        """Host down (no publishes, registration lapses) for a window."""
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        return self._add(
            FaultSpec("crash", host, 0.0, float(start), float(start) + float(duration))
        )

    def clock_skew(
        self, offset: float, *, host=None, start=0.0, stop=math.inf
    ) -> "FaultPlan":
        """Publish timestamps offset by ``offset`` seconds while active."""
        return self._add(
            FaultSpec(
                "clock_skew", host, 0.0, float(start), float(stop), float(offset)
            )
        )

    def journal_truncate(
        self, at: float, *, keep_fraction: float = 0.5, host=None
    ) -> "FaultPlan":
        """Tear the tenant log to ``keep_fraction`` of its bytes at time ``at``."""
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        return self._add(
            FaultSpec(
                "journal_truncate", host, 0.0, float(at), math.inf, float(keep_fraction)
            )
        )

    def journal_corrupt(self, at: float, *, lines: int = 3, host=None) -> "FaultPlan":
        """Append ``lines`` garbage lines to the tenant log at time ``at``."""
        if lines < 1:
            raise ValueError(f"lines must be >= 1, got {lines}")
        return self._add(
            FaultSpec("journal_corrupt", host, 0.0, float(at), math.inf, float(lines))
        )

    # ------------------------------------------------------------ compile

    def for_host(self, host: str) -> tuple[FaultSpec, ...]:
        """The clauses that apply to ``host``, in plan order."""
        return tuple(s for s in self.specs if s.applies_to(host))

    def compile(self, *, seed, host_index: int, host: str) -> "HostFaults":
        """Bind the plan to one host with its own seeded fault stream."""
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (*seed_entropy(seed), int(host_index), _FAULT_STREAM)
            )
        )
        return HostFaults(self.name, self.for_host(host), rng=rng, host=host)

    def describe(self) -> str:
        """One line per clause, for CLI listings."""
        if not self.specs:
            return f"{self.name}: no faults"
        lines = [f"{self.name}:"]
        for spec in self.specs:
            scope = spec.host if spec.host is not None else "all hosts"
            window = (
                ""
                if spec.start == 0.0 and spec.stop == math.inf
                else f" in [{spec.start:g}, {spec.stop:g})"
            )
            detail = f" rate={spec.rate:g}" if spec.kind in STOCHASTIC_KINDS else ""
            if spec.magnitude:
                detail += f" magnitude={spec.magnitude:g}"
            lines.append(f"  {spec.kind} on {scope}{detail}{window}")
        return "\n".join(lines)


class HostFaults:
    """Compiled per-host fault state: one seeded stream, plain-int tallies.

    Built by :meth:`FaultPlan.compile`; driven by
    :class:`~repro.nws.sensorhost.SensorHost` from the sim-clock pump.
    """

    def __init__(
        self,
        plan_name: str,
        specs: tuple[FaultSpec, ...],
        *,
        rng: np.random.Generator,
        host: str,
    ):
        self.plan_name = plan_name
        self.host = host
        self._rng = rng
        self._stochastic = tuple(s for s in specs if s.kind in STOCHASTIC_KINDS)
        self._crashes = tuple(
            sorted((s.start, s.stop) for s in specs if s.kind == "crash")
        )
        self._skews = tuple(s for s in specs if s.kind == "clock_skew")
        # One-shot journal events: [spec, fired?] pairs.
        self._journal: list[list] = [
            [s, False] for s in specs if s.kind in JOURNAL_KINDS
        ]
        # Delayed publishes: (series, stamped_time, value, created, deliver_at).
        self._buffer: list[tuple[str, float, float, float, float]] = []
        self.tallies: dict[tuple[str, str], int] = {}
        self._registry = get_registry()
        self._counters: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------- tallies

    def tally(self, outcome: str, kind: str, n: int = 1) -> None:
        """Count ``n`` events of ``kind`` with the given outcome.

        ``outcome`` is ``injected`` / ``absorbed`` / ``failed``; counts go
        to :attr:`tallies` and ``repro_faults_<outcome>_total`` counters.
        """
        key = (outcome, kind)
        self.tallies[key] = self.tallies.get(key, 0) + n
        counter = self._counters.get(key)
        if counter is None:
            counter = self._registry.counter(
                f"repro_faults_{outcome}_total", host=self.host, kind=kind
            )
            self._counters[key] = counter
        counter.inc(n)

    def counts(self, outcome: str) -> dict[str, int]:
        """``{kind: count}`` for one outcome, sorted by kind."""
        return {
            kind: n
            for (out, kind), n in sorted(self.tallies.items())
            if out == outcome
        }

    # ----------------------------------------------------------- predicates

    def crashed(self, t: float) -> bool:
        """Is the host inside a crash window at time ``t``?"""
        return any(start <= t < stop for start, stop in self._crashes)

    def _crash_started_between(self, a: float, b: float) -> bool:
        return any(a < start <= b for start, _ in self._crashes)

    def skew(self, t: float) -> float:
        """Total clock-skew offset applied to publishes at time ``t``."""
        return sum(s.magnitude for s in self._skews if s.active(t))

    # ------------------------------------------------------------- routing

    def crash_drop(self, n: int = 1) -> None:
        """Record ``n`` readings lost because the host was down."""
        self.tally("injected", "crash_lost", n)

    def route(
        self, series: str, t: float, value: float
    ) -> list[tuple[float, float]]:
        """Fault-route one reading; returns ``(time, value)`` publishes due now.

        May return zero (lost / buffered), one, or two publishes.  Draws
        happen in fixed plan order, so the stream is reproducible.
        """
        offset = self.skew(t)
        if offset:
            self.tally("injected", "clock_skew")
        stamped = t + offset
        for spec in self._stochastic:
            if not spec.active(t):
                continue
            if float(self._rng.random()) >= spec.rate:
                continue
            if spec.kind == "sensor_dropout":
                self.tally("injected", "sensor_dropout")
                return [(stamped, float("nan"))]
            if spec.kind == "publish_loss":
                self.tally("injected", "publish_loss")
                return []
            if spec.kind == "publish_delay":
                delay = float(self._rng.random()) * spec.magnitude
                self._buffer.append((series, stamped, value, t, t + delay))
                self.tally("injected", "publish_delay")
                return []
            self.tally("injected", "publish_duplicate")
            return [(stamped, value), (stamped, value)]
        return [(stamped, value)]

    def flush(self, now: float) -> list[tuple[str, float, float]]:
        """Buffered delayed publishes due by ``now``, in creation order.

        Entries whose host crashed between creation and delivery are lost
        (the buffer lived in the crashed process).
        """
        if not self._buffer:
            return []
        due: list[tuple[str, float, float]] = []
        keep: list[tuple[str, float, float, float, float]] = []
        lost = 0
        for entry in self._buffer:
            series, stamped, value, created, deliver_at = entry
            if self._crash_started_between(created, min(deliver_at, now)):
                lost += 1
            elif deliver_at <= now:
                due.append((series, stamped, value))
            else:
                keep.append(entry)
        self._buffer = keep
        if lost:
            self.tally("injected", "crash_lost", lost)
        return due

    def tick(self, until: float, memory) -> None:
        """Fire journal faults due by ``until`` against ``memory``.

        Each event tears / pollutes the memory's tenant log once and
        immediately restores the store from it through
        :meth:`~repro.nws.memory.MemoryStore.recover` -- the
        crash-recovery path the store already has -- tallying the
        round-trip as absorbed.
        """
        for slot in self._journal:
            spec, fired = slot
            if fired or spec.start > until:
                continue
            slot[1] = True
            if memory is None or memory.log is None:
                self.tally("failed", "journal_unpersisted")
                continue
            memory.sync()
            path = memory.log.path
            if spec.kind == "journal_truncate":
                data = path.read_bytes() if path.exists() else b""
                path.write_bytes(data[: int(len(data) * spec.magnitude)])
            else:
                with path.open("ab") as f:
                    for i in range(int(spec.magnitude)):
                        f.write(b'{"t": torn-write-%d\n' % i)
            self.tally("injected", spec.kind)
            memory.recover()
            self.tally("absorbed", "journal_recovered")


def named_plans() -> dict[str, FaultPlan]:
    """The built-in fault plans, keyed by name.

    * ``none`` -- empty plan (installs the hooks, injects nothing).
    * ``dropout10`` -- 10% sensor dropout on every host.
    * ``dropout10-crash`` -- 10% dropout plus one crash/restart window on
      ``thing1`` (down 1800 s..2400 s) -- the acceptance scenario.
    * ``grid-storm`` -- everything at once: dropout, loss, delay,
      duplication, skew, and a crash.
    """
    return {
        "none": FaultPlan("none"),
        "dropout10": FaultPlan("dropout10").sensor_dropout(0.10),
        "dropout10-crash": (
            FaultPlan("dropout10-crash")
            .sensor_dropout(0.10)
            .crash(start=1800.0, duration=600.0, host="thing1")
        ),
        "grid-storm": (
            FaultPlan("grid-storm")
            .sensor_dropout(0.05)
            .publish_loss(0.05)
            .publish_delay(0.05, max_delay=45.0)
            .publish_duplicate(0.03)
            .clock_skew(2.5, start=600.0, stop=1800.0)
            .crash(start=1200.0, duration=600.0, host="thing1")
        ),
    }


def named_plan(name: str) -> FaultPlan:
    """Look up a built-in plan by name (KeyError lists the valid names)."""
    plans = named_plans()
    if name not in plans:
        raise KeyError(f"unknown fault plan {name!r}; have {sorted(plans)}")
    return plans[name]
