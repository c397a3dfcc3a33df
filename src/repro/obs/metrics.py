"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

The registry is the passive half of the observability layer: instrumented
code obtains metric handles (``registry.counter(name, **labels)``) and
mutates them; :meth:`MetricsRegistry.snapshot` freezes everything into a
plain dict for the exporters.  Nothing in here reads a clock -- values are
whatever the (simulated) system wrote, so snapshots of a seeded simulation
are bit-reproducible.

Installation follows the null-object pattern: by default the module-level
registry is a :class:`NullRegistry` whose handles are shared no-op
singletons, so instrumented hot paths pay one no-op method call when
observability is off.  Install a real :class:`MetricsRegistry` *before*
constructing the system under observation -- components grab their handles
at construction time::

    from repro.obs.metrics import MetricsRegistry, installed

    registry = MetricsRegistry()
    with installed(registry):
        system = NWSSystem(["thing1"], seed=7)
        system.advance(3600.0)
    print(registry.snapshot())

Collect-style metrics (values derived from live objects rather than
incremented in place, e.g. the simulated clock) register a callback via
:meth:`MetricsRegistry.register_callback`; callbacks run at snapshot time
in registration order, keeping the hot path untouched.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "WALL_METRICS",
    "get_registry",
    "install",
    "installed",
    "uninstall",
]

#: Generic default histogram bucket upper bounds.  Availability fractions
#: land in the sub-1.0 buckets; (simulated) durations use the tail.
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Metric families whose values come from the real (wall) clock and are
#: therefore *not* reproducible across runs.  Everything else in a
#: snapshot of a seeded simulation is bit-stable;
#: :func:`repro.obs.exporters.deterministic_view` drops exactly this set.
WALL_METRICS = frozenset(
    {
        "repro_runner_host_seconds",
        "repro_runner_worker_utilization",
        "repro_forecast_seconds",
        "repro_server_request_seconds",
    }
)


class Counter:
    """Monotonically increasing count (events fired, readings taken)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0.0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def sync(self, total: float) -> None:
        """Set the absolute total (collect-style sync from a live object).

        For sources that already keep their own cheap tally (e.g. the
        kernel's event counts) a snapshot callback copies the total here
        instead of paying a handle call on the hot path.
        """
        if total < self.value:
            raise ValueError(
                f"counter {self.name} cannot move backwards: "
                f"{self.value} -> {total}"
            )
        self.value = float(total)


class Gauge:
    """Point-in-time value (queue depth, load average, sim clock)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (probe availabilities, per-query work).

    Buckets are upper bounds, cumulative at export time only; internally
    each bucket holds its own count so ``observe`` is a bisect + two adds.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: tuple[float, ...],
    ):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram {name} buckets must be sorted, unique, non-empty: "
                f"{buckets}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 = overflow (+Inf)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.buckets, self.counts):
            running += n
            out.append((upper, running))
        out.append((float("inf"), self.count))
        return out


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def sync(self, total: float) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """No-op registry: shared inert handles, empty snapshots.

    Installed by default so instrumented code needs no ``if`` guards; the
    cost of disabled observability is one no-op method call per hook.
    """

    __slots__ = ()

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def register_callback(self, callback) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Labelled metric store with a plain-dict snapshot.

    Handles are created on first use and shared thereafter: two calls to
    ``registry.counter("x", host="a")`` return the same object, while
    differing labels return distinct time series under one metric name.
    Requesting an existing name as a different metric kind raises
    :class:`ValueError` (one name, one type -- the Prometheus data model).
    """

    def __init__(self):
        self._metrics: dict[str, dict[tuple[tuple[str, str], ...], object]] = {}
        self._kinds: dict[str, str] = {}
        self._callbacks: list[Callable[["MetricsRegistry"], None]] = []
        # Guards handle creation (the only registry-level mutation after
        # construction); handles themselves are bound per component and
        # written single-threaded.
        self._lock = threading.RLock()

    # ------------------------------------------------------------- handles

    def _series(self, kind: str, name: str, labels: dict[str, str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r} on metric {name}")
        existing_kind = self._kinds.get(name)
        if existing_kind is not None and existing_kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a "
                f"{existing_kind}, not a {kind}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        # Lock-free fast path: dict reads are GIL-atomic, and a series
        # mapping is never removed once created.  Only creation locks.
        series = self._metrics.get(name)
        if series is None:
            with self._lock:
                series = self._metrics.setdefault(name, {})
        return key, series

    def counter(self, name: str, **labels: str) -> Counter:
        key, series = self._series("counter", name, labels)
        handle = series.get(key)
        if handle is None:
            with self._lock:
                handle = series.get(key)
                if handle is None:
                    handle = series[key] = Counter(name, key)
                    self._kinds[name] = "counter"
        return handle  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        key, series = self._series("gauge", name, labels)
        handle = series.get(key)
        if handle is None:
            with self._lock:
                handle = series.get(key)
                if handle is None:
                    handle = series[key] = Gauge(name, key)
                    self._kinds[name] = "gauge"
        return handle  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        """Fixed-bucket histogram handle.

        ``buckets`` applies only on first creation of a series; subsequent
        calls return the existing handle unchanged.
        """
        key, series = self._series("histogram", name, labels)
        handle = series.get(key)
        if handle is None:
            with self._lock:
                handle = series.get(key)
                if handle is None:
                    handle = series[key] = Histogram(
                        name, key, buckets if buckets is not None else DEFAULT_BUCKETS
                    )
                    self._kinds[name] = "histogram"
        return handle  # type: ignore[return-value]

    # ------------------------------------------------------------ snapshot

    def register_callback(
        self, callback: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run ``callback(registry)`` at every snapshot, before freezing.

        Collect-style instrumentation: sync gauges/counters from live
        objects here so hot paths stay untouched.
        """
        self._callbacks.append(callback)

    def snapshot(self) -> dict:
        """Freeze every metric into a plain, deterministic dict.

        Shape::

            {metric_name: {"type": "counter" | "gauge" | "histogram",
                           "samples": [{"labels": {...}, "value": v} |
                                       {"labels": {...}, "sum": s,
                                        "count": n, "buckets": [[le, c]...]}]}}

        Names and label sets are sorted, so equal system states produce
        byte-identical serializations.
        """
        for callback in self._callbacks:
            callback(self)
        out: dict = {}
        for name in sorted(self._metrics):
            samples = []
            for key in sorted(self._metrics[name]):
                handle = self._metrics[name][key]
                labels = dict(key)
                if isinstance(handle, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "sum": handle.sum,
                            "count": handle.count,
                            "buckets": [
                                [le, c] for le, c in handle.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": handle.value})
            out[name] = {"type": self._kinds[name], "samples": samples}
        return out


# ---------------------------------------------------------------- install

_installed: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The currently installed registry (the null registry by default)."""
    return _installed


#: Guards the process-wide installed-registry slot (the service layer may
#: swap registries from a management thread while workers read it).
_INSTALL_LOCK = threading.Lock()


def install(registry: MetricsRegistry) -> None:
    """Make ``registry`` the process-wide metrics sink.

    Components bind their handles at construction time, so install before
    building the system you want observed.
    """
    global _installed
    with _INSTALL_LOCK:
        _installed = registry


def uninstall() -> None:
    """Restore the no-op default."""
    global _installed
    with _INSTALL_LOCK:
        _installed = NULL_REGISTRY


@contextmanager
def installed(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`install` / :func:`uninstall` (the test-friendly path)."""
    global _installed
    with _INSTALL_LOCK:
        previous = _installed
        _installed = registry
    try:
        yield registry
    finally:
        with _INSTALL_LOCK:
            _installed = previous
