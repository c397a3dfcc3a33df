"""Spans and traces stamped from an injected clock.

A :class:`Tracer` owns a clock callable and a list of finished
:class:`SpanRecord` entries.  In simulated systems the clock is the
simulation clock, so traces are bit-reproducible across runs with the same
seed: nothing here reads the wall clock.
Wall-clock tracing belongs exclusively to the ``repro.live`` adapter,
which constructs a tracer around ``time.monotonic``.

Two ways to produce spans:

* context-managed (the form instrumented modules use: a span that is
  never entered records nothing)::

      with tracer.span("nws.advance", until=3600.0):
          system.advance(3600.0)

* explicit record, for intervals whose endpoints are event callbacks
  rather than a lexical block (e.g. a probe launch + completion)::

      tracer.record("sensor.probe", start=t0, end=t1, host="thing1")

Like the metrics side, the module-level default is a no-op
:class:`NullTracer`; install a real tracer with :func:`traced`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "install_tracer",
    "uninstall_tracer",
    "traced",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted span name (``"kernel.run"``, ``"nws.query"``).
    start / end:
        Clock readings at entry and exit (simulated seconds for sim-clock
        tracers).
    status:
        ``"ok"``, or ``"error"`` when the block raised.
    attrs:
        Caller-provided key/value annotations (JSON-serializable).
    """

    name: str
    start: float
    end: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Span:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def annotate(self, **attrs) -> None:
        """Attach further attributes from inside the block."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(
            SpanRecord(
                name=self._name,
                start=self._start,
                end=self._tracer.clock(),
                status="ok" if exc_type is None else "error",
                attrs=self._attrs,
            )
        )
        return False


class Tracer:
    """Span recorder over an injected clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time.  Simulated
        systems inject their sim clock; only the live adapter may inject a
        wall clock.
    max_spans:
        Retention bound; the oldest spans are dropped beyond it (a
        week-long simulated trace must not hold every probe span forever).
    """

    def __init__(self, clock: Callable[[], float], *, max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock
        self.max_spans = int(max_spans)
        self._spans: list[SpanRecord] = []
        self.dropped = 0

    @property
    def spans(self) -> list[SpanRecord]:
        """Finished spans in completion order."""
        return list(self._spans)

    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing the enclosed block."""
        return _Span(self, name, attrs)

    def record(
        self, name: str, start: float, end: float, **attrs
    ) -> SpanRecord:
        """Record a span whose endpoints were captured by the caller."""
        record = SpanRecord(name=name, start=start, end=end, attrs=attrs)
        self._finish(record)
        return record

    def _finish(self, record: SpanRecord) -> None:
        self._spans.append(record)
        if len(self._spans) > self.max_spans:
            excess = len(self._spans) - self.max_spans
            del self._spans[:excess]
            self.dropped += excess


class _NullSpan:
    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer handed out when tracing is not installed."""

    __slots__ = ()

    spans: tuple = ()
    dropped: int = 0

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        return None


NULL_TRACER = NullTracer()

_installed: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The currently installed tracer (no-op by default)."""
    return _installed


#: Guards the process-wide installed-tracer slot (mirrors the registry
#: install lock in :mod:`repro.obs.metrics`).
_INSTALL_LOCK = threading.Lock()


def install_tracer(tracer: Tracer) -> None:
    global _installed
    with _INSTALL_LOCK:
        _installed = tracer


def uninstall_tracer() -> None:
    global _installed
    with _INSTALL_LOCK:
        _installed = NULL_TRACER


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`install_tracer` / :func:`uninstall_tracer`."""
    global _installed
    with _INSTALL_LOCK:
        previous = _installed
        _installed = tracer
    try:
        yield tracer
    finally:
        with _INSTALL_LOCK:
            _installed = previous
