"""NWS memory: bounded persistent measurement histories.

An NWS memory accepts timestamped measurements from sensors, retains a
bounded circular history per series, and serves range fetches to
forecasters.  With ``directory`` set, the store owns its tenant's
append-only log (:attr:`MemoryStore.log`, a
:class:`~repro.nws.durable.TenantLog` the tenant's name server shares)
so histories survive restarts -- the real memory's flat-file
persistence.  Every :meth:`~MemoryStore.publish`,
:meth:`~MemoryStore.replace`, :meth:`~MemoryStore.forget` and
:meth:`~MemoryStore.recover` appends its record *before* it changes
memory, so a record that cannot be written changes nothing, and
replaying the log gives back the store as of its last durable record.

Each series is held as two ``array('d')`` buffers -- times and values,
8 bytes a sample -- and every sample has a *sequence number* that is
never reused within the store.  A series' samples count up by one from
the start of its *run*, its unbroken sequence of samples; a run begins
at a series' first publish (also the first after
:meth:`MemoryStore.forget`), at :meth:`MemoryStore.replace` and at
:meth:`MemoryStore.recover`, and each run starts a fresh range drawn
from one per-store counter.  So a sequence number names exactly one
``(t, v)`` for ever, and :meth:`MemoryStore.fetch` returns, next to a
window's arrays, the number of its first sample (:class:`Window`): two
windows of one run overlap exactly where their numbers do.  The HTTP
fetch path keys its text memo on this (:class:`repro.nws.wire.SampleText`).
"""

from __future__ import annotations

import itertools
import math
import threading
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path

from repro.nws.durable import TenantLog
from repro.nws.errors import SeriesUnavailable, coerce_field
from repro.obs.metrics import get_registry

__all__ = ["MemoryStore", "Window"]

#: Sequence numbers one run may use: run ``r`` numbers its samples from
#: ``r * _RUN_SPAN`` up, so runs never share a number.
_RUN_SPAN = 1 << 64


class Window(tuple):
    """One fetched window: the pair ``(times, values)`` of ``array('d')``
    copies of the store's samples.

    ``first_seq`` is the sequence number of the window's first sample;
    the others follow it one by one.
    """

    def __new__(cls, times: array, values: array, first_seq: int):
        window = super().__new__(cls, (times, values))
        window.first_seq = first_seq
        return window


class MemoryStore:
    """Bounded per-series measurement storage.

    Parameters
    ----------
    capacity:
        Maximum samples retained per series (older ones are dropped, like
        the NWS circular memory files).
    directory:
        Optional persistence directory: every change is logged to the
        tenant log there (:attr:`log`) and can be replayed with
        :meth:`recover`.
    journal_flush_lines:
        Group-commit size for log appends.  ``1`` (the default) writes
        every record through to the OS immediately; larger values
        buffer in memory and amortize the write, trading at most
        ``journal_flush_lines - 1`` records of crash-loss window.
        :meth:`sync` / :meth:`close` always flush the buffer.
    """

    def __init__(
        self,
        capacity: int = 4096,
        directory=None,
        *,
        journal_flush_lines: int = 1,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.directory = Path(directory) if directory is not None else None
        self.log = None
        if self.directory is not None:
            self.log = TenantLog(self.directory, flush_lines=journal_flush_lines)
        # Publishes arrive from sensor-host pump threads while fetches come
        # from the main/forecaster path; every access to the series maps
        # goes through this lock.
        self._lock = threading.Lock()
        self._times: dict[str, array] = {}
        self._values: dict[str, array] = {}
        # Sequence number of each series' first retained sample, and the
        # start of each new run.
        self._first: dict[str, int] = {}
        self._run_starts = itertools.count(0, _RUN_SPAN)
        # The last run of each forgotten series, which recover() gives
        # back and log compaction must keep (persistent stores only).
        self._forgotten: dict[str, tuple[array, array]] = {}
        registry = get_registry()
        self._registry = registry
        self._obs_publishes: dict[str, object] = {}
        self._obs_evictions = registry.counter("repro_memory_evictions_total")
        self._obs_fetches = registry.counter("repro_memory_fetches_total")
        self._obs_recoveries = registry.counter("repro_memory_recoveries_total")
        self._obs_recovered = registry.counter("repro_memory_recovered_samples_total")
        self._obs_corrupt = registry.counter(
            "repro_memory_corrupt_journal_lines_total"
        )
        self._obs_checkpoints = registry.counter(
            "repro_memory_journal_checkpoints_total"
        )
        registry.register_callback(
            lambda r: r.gauge("repro_memory_series").set(len(self._times))
        )

    # ------------------------------------------------------------- publish

    def publish(self, series: str, time: float, value: float) -> None:
        """Append one measurement to ``series``.

        Timestamps must be finite and non-decreasing per series (the NWS
        rejects out-of-order reports); :meth:`fetch` and :meth:`tail`
        rely on that order.  A publish that raises keeps nothing.

        Raises
        ------
        ValueError
            A non-finite or out-of-order time, or a new series whose
            name is not a string.
        ServerOverloaded
            The process is out of file descriptors to open the log
            (``reason="descriptors"``); retrying later may succeed.
        """
        time, value = float(time), float(value)
        _check_time(series, time)
        with self._lock:
            times = self._times.get(series)
            if times is None:
                # A name is checked once, when the series is created.
                coerce_field("series", str, series)
            elif times and time < times[-1]:
                raise ValueError(
                    f"out-of-order measurement for {series!r}: "
                    f"{time} after {times[-1]}"
                )
            # Log first, still under the lock: a concurrent compaction
            # can never drop an in-flight append, and an append that
            # fails leaves the sample out of memory too.
            if self.log is not None:
                self.log.publish(series, time, value)
            if times is None:
                times = self._times[series] = array("d")
                values = self._values[series] = array("d")
                self._first[series] = next(self._run_starts)
                self._forgotten.pop(series, None)
            else:
                values = self._values[series]
            times.append(time)
            values.append(value)
            counter = self._obs_publishes.get(series)
            if counter is None:
                counter = self._registry.counter(
                    "repro_memory_publishes_total", series=series
                )
                self._obs_publishes[series] = counter
            counter.inc()
            if len(times) > self.capacity:
                dropped = len(times) - self.capacity
                del times[:dropped]
                del values[:dropped]
                self._first[series] += dropped
                self._obs_evictions.inc(dropped)

    # --------------------------------------------------------------- fetch

    def series_names(self) -> list[str]:
        with self._lock:
            return sorted(self._times)

    def count(self, series: str) -> int:
        with self._lock:
            return len(self._times.get(series, ()))

    def fetch(
        self,
        series: str,
        *,
        start: float = -math.inf,
        stop: float = math.inf,
        limit: int | None = None,
    ) -> Window:
        """(times, values) for ``series``, newest-retained window.

        The keyword names match :meth:`repro.nws.client.NWSClient.fetch`
        exactly -- one fetch signature across the whole stack.  The
        window is found by bisection on the sorted timestamps and only
        it is copied, so a fetch costs O(log n + window), not O(n).
        The returned :class:`Window` unpacks as ``times, values`` and
        carries the sequence number of its first sample.

        Parameters
        ----------
        start:
            Only samples with ``t >= start``.
        stop:
            Only samples with ``t <= stop``.
        limit:
            At most this many *most recent* samples (applied after the
            time window); must be >= 1.

        Raises
        ------
        SeriesUnavailable
            The series was never published here, or has been forgotten
            (a :class:`LookupError`, deliberately not ``KeyError``).
        ValueError
            ``limit`` is below 1.
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            times = self._times.get(series)
            if times is None:
                raise SeriesUnavailable(series, sorted(self._times))
            if start <= stop:
                lo, hi = bisect_left(times, start), bisect_right(times, stop)
            else:  # inverted or NaN bounds: nothing satisfies both
                lo = hi = 0
            if limit is not None:
                lo = max(lo, hi - limit)
            # Slices are copies: the caller owns them, and the store's
            # own buffers never export a view and stay resizable.
            times, values = times[lo:hi], self._values[series][lo:hi]
            first = self._first[series] + lo
        self._obs_fetches.inc()
        return Window(times, values, first)

    def tail(self, series: str, offset: int) -> tuple[int, float, list[float]]:
        """``(retained count, newest time, values[offset:])`` in one read.

        The forecaster's incremental read: it needs only the samples it
        has not consumed yet, plus the count and newest stamp that
        describe them, taken atomically.  Costs O(len - offset).  The
        newest time is NaN for an empty series.

        Raises
        ------
        SeriesUnavailable
            As :meth:`fetch`.
        """
        with self._lock:
            times = self._times.get(series)
            if times is None:
                raise SeriesUnavailable(series, sorted(self._times))
            newest = times[-1] if times else math.nan
            fresh = self._values[series][offset:].tolist()
            count = len(times)
        self._obs_fetches.inc()
        return count, newest, fresh

    def replace(self, series: str, times, values) -> int:
        """Atomically replace a series' retained history.

        The server's retention compactor uses this to swap an old raw
        window for its downsampled equivalent; timestamps must be
        finite and non-decreasing and the two arrays equal-length.  With
        persistence on, the new history is logged first: a replace that
        raises changes nothing.  The history starts a new run of
        sequence numbers.  Returns the new retained length.
        """
        coerce_field("series", str, series)
        times = array("d", [float(t) for t in times])
        values = array("d", [float(v) for v in values])
        if len(times) != len(values):
            raise ValueError(
                f"times/values length mismatch: {len(times)} != {len(values)}"
            )
        for t in times:
            _check_time(series, t)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"replacement history for {series!r} is unordered")
        with self._lock:
            return self._install_locked(series, times, values)

    def _install_locked(self, series: str, times: array, values: array) -> int:
        """Log ``series``' new run, then hold it (caller holds the lock)."""
        times, values = times[-self.capacity :], values[-self.capacity :]
        if self.log is not None:
            self.log.replace(series, times, values)
        self._times[series] = times
        self._values[series] = values
        self._first[series] = next(self._run_starts)
        self._forgotten.pop(series, None)
        return len(times)

    def forget(self, series: str) -> bool:
        """Drop a series' retained history; its run stays recoverable.

        The expiry hook: after ``forget``, :meth:`fetch` raises
        :class:`~repro.nws.errors.SeriesUnavailable` until the series is
        re-published or :meth:`recover`-ed.  Returns whether the series
        existed.
        """
        with self._lock:
            if series not in self._times:
                return False
            if self.log is not None:
                self.log.forget(series)
                self._forgotten[series] = self._times[series], self._values[series]
            del self._times[series], self._values[series], self._first[series]
        return True

    # ----------------------------------------------------------- recovery

    def recover(self, series: str | None = None) -> int:
        """Reload from the log: one series' last run, or every series.

        With ``series``, its last run (bounded by capacity) becomes its
        history again -- also after :meth:`forget` -- and is logged as a
        ``replace``; a series the log never held is left alone.  Without
        one, the store becomes exactly what the log holds: every series
        live at its last durable record.  Each recovered history starts
        a new run of sequence numbers; returns the samples recovered.
        Lines that do not decode, and records :meth:`publish` or
        :meth:`replace` would have rejected, are skipped and tallied in
        ``repro_memory_corrupt_journal_lines_total``: a partial history
        is strictly more useful to the forecasters than none.

        Raises
        ------
        ValueError
            If the store has no persistence directory.
        """
        if self.log is None:
            raise ValueError("this MemoryStore has no persistence directory")
        with self._lock:
            state = self.log.replay(self.capacity)
            if series is not None:
                run = state.live.get(series) or state.forgotten.get(series)
                recovered = 0 if run is None else self._install_locked(series, *run)
            else:
                self._times = {name: run[0] for name, run in state.live.items()}
                self._values = {name: run[1] for name, run in state.live.items()}
                self._first = {name: next(self._run_starts) for name in state.live}
                self._forgotten = state.forgotten
                recovered = sum(len(times) for times, _ in state.live.values())
        self._obs_corrupt.inc(state.corrupt)
        self._obs_recoveries.inc()
        self._obs_recovered.inc(recovered)
        return recovered

    def compact(self) -> bool:
        """Rewrite the log to the live state once it has outgrown it
        (:meth:`~repro.nws.durable.TenantLog.compact`); returns whether
        it was rewritten."""
        if self.log is None:
            return False
        with self._lock:
            runs = {s: (self._times[s], self._values[s]) for s in self._times}
            compacted = self.log.compact(runs, self._forgotten)
        if compacted:
            self._obs_checkpoints.inc()
        return compacted

    def sync(self) -> None:
        """Flush buffered log appends and fsync the log."""
        if self.log is not None:
            self.log.sync()

    def close(self) -> None:
        """Durably flush and release the log's descriptor."""
        if self.log is not None:
            self.log.close()

    def discard_unflushed(self) -> None:
        """Drop buffered log appends without writing (crash simulation)."""
        if self.log is not None:
            self.log.discard()


def _check_time(series: str, time: float) -> None:
    if not math.isfinite(time):
        raise ValueError(f"non-finite measurement time for {series!r}: {time}")
