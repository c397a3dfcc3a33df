"""NWS memory: bounded persistent measurement histories.

An NWS memory accepts timestamped measurements from sensors, retains a
bounded circular history per series, and serves range fetches to
forecasters.  Optionally the store journals to disk (JSON lines per
series) so histories survive restarts -- the real memory's flat-file
persistence.

Persistence layout (``directory`` set)::

    <directory>/
        series.json        # catalog: series name -> journal filename
        <safe-name>.jsonl  # append-only write-ahead journal per series

Each journal line is one sample, written by ``_encode_sample`` as
``{"t": <time>, "v": <value>}`` with each number in its ``repr`` form
(or ``NaN`` / ``Infinity`` / ``-Infinity``) -- the canonical line.
:meth:`MemoryStore.recover` decodes canonical lines with one compiled
regex; any other line (other spacing or key order, bare integers,
surrounding whitespace, torn writes) falls back to ``json.loads`` under
the same skip-and-count rules, so both paths yield the same samples.

Journal appends go through a :class:`~repro.nws.durable.JournalWriter`
(group commit every ``journal_flush_lines`` appends); whole-file state
-- the catalog, and the journal itself when :meth:`replace` checkpoints
it after retention compaction -- is rewritten atomically via
``os.replace`` so a crash can never tear it.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np

from repro.nws.durable import JournalWriter, atomic_replace_bytes, atomic_replace_json
from repro.nws.errors import SeriesUnavailable
from repro.obs.metrics import get_registry
from repro.trace.series import TraceSeries

__all__ = ["MemoryStore"]

_CATALOG_NAME = "series.json"


def _json_float(x: float) -> str:
    """``json.dumps``-compatible rendering of one float.

    Hand-rolled because sample encoding sits on the publish hot path
    (see ``benchmarks/bench_recovery.py``); ``repr`` round-trips floats
    exactly, so journal replay reproduces bit-identical histories.
    """
    if math.isfinite(x):
        return repr(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _encode_sample(t: float, v: float) -> str:
    # Byte-identical to json.dumps({"t": t, "v": v}) with default
    # separators, so journals written before group commit still parse.
    return '{"t": %s, "v": %s}' % (_json_float(t), _json_float(v))


# Matches exactly the lines _encode_sample writes: a JSON number with a
# fraction or an exponent (what repr(float) emits), or one of the three
# constants _json_float writes.  ASCII digits only -- float() accepts
# other Unicode digits, json.loads does not -- and no bare integers,
# which repr never writes and json.loads parses as (possibly oversized)
# ints; such lines take the json.loads path in recover().
_NUMBER = (
    r"(-?(?:0|[1-9][0-9]*)"
    r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
    r"|NaN|-?Infinity)"
)
_SAMPLE_LINE = re.compile(r'\{"t": %s, "v": %s\}' % (_NUMBER, _NUMBER))


class MemoryStore:
    """Bounded per-series measurement storage.

    Parameters
    ----------
    capacity:
        Maximum samples retained per series (older ones are dropped, like
        the NWS circular memory files).
    directory:
        Optional persistence directory; each series appends to
        ``<name>.jsonl`` and can be recovered with :meth:`recover`.
    journal_flush_lines:
        Group-commit size for journal appends.  ``1`` (the default)
        writes every sample through to the OS immediately; larger values
        buffer in memory and amortize the write, trading at most
        ``journal_flush_lines - 1`` samples of crash-loss window.
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
        self._journal = JournalWriter(flush_lines=journal_flush_lines)
        self._catalog: dict[str, str] = {}
        # Per-series journal Path cache, written only under self._lock
        # (the publish hot path) and read lock-free elsewhere.
        self._journal_paths: dict[str, Path] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._catalog = self._load_catalog()
        # Publishes arrive from sensor-host pump threads while fetches come
        # from the main/forecaster path; every access to the series maps
        # goes through this lock.
        self._lock = threading.Lock()
        self._times: dict[str, list[float]] = {}
        self._values: dict[str, list[float]] = {}
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
        rely on that order.
        """
        time, value = float(time), float(value)
        _check_time(series, time)
        with self._lock:
            times = self._times.setdefault(series, [])
            values = self._values.setdefault(series, [])
            if times and time < times[-1]:
                raise ValueError(
                    f"out-of-order measurement for {series!r}: "
                    f"{time} after {times[-1]}"
                )
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
                self._obs_evictions.inc(dropped)
            # Journal while still holding the lock so a concurrent
            # checkpoint (replace) can never drop an in-flight append.
            if self.directory is not None:
                if series not in self._catalog:
                    self._catalog[series] = f"{_safe(series)}.jsonl"
                    self._write_catalog()
                # Resolve-and-cache here, under the lock: building a Path
                # (and re-hashing it inside JournalWriter) per sample
                # costs more than the buffered append itself.
                path = self._journal_paths.get(series)
                if path is None:
                    path = self.directory / f"{_safe(series)}.jsonl"
                    self._journal_paths[series] = path
                self._journal.append(path, _encode_sample(time, value))

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
        start: float = -np.inf,
        stop: float = np.inf,
        limit: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) for ``series``, newest-retained window.

        The keyword names match :meth:`repro.nws.client.NWSClient.fetch`
        exactly -- one fetch signature across the whole stack.  The
        window is found by bisection on the sorted timestamps and only
        it is copied, so a fetch costs O(log n + window), not O(n).

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
            times, values = times[lo:hi], self._values[series][lo:hi]
        self._obs_fetches.inc()
        return np.array(times, dtype=np.float64), np.array(values, dtype=np.float64)

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
            fresh = self._values[series][offset:]
            count = len(times)
        self._obs_fetches.inc()
        return count, newest, fresh

    def as_trace(self, series: str, host: str = "", method: str = "") -> TraceSeries:
        """The retained history as a :class:`~repro.trace.series.TraceSeries`."""
        times, values = self.fetch(series)
        return TraceSeries(host or series, method or "memory", times, values)

    def replace(self, series: str, times, values) -> int:
        """Atomically replace a series' retained history.

        The server's retention compactor uses this to swap an old raw
        window for its downsampled equivalent; timestamps must be
        non-decreasing and the two arrays equal-length.  When
        persistence is on, the journal is checkpointed in the same
        critical section -- atomically rewritten (``os.replace``) to
        exactly the new retained history -- so journals stop growing
        without bound and :meth:`recover` always reproduces what
        retention kept.  Returns the new retained length.
        """
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values):
            raise ValueError(
                f"times/values length mismatch: {len(times)} != {len(values)}"
            )
        for t in times:
            _check_time(series, t)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"replacement history for {series!r} is unordered")
        if len(times) > self.capacity:
            times = times[-self.capacity :]
            values = values[-self.capacity :]
        with self._lock:
            self._times[series] = times
            self._values[series] = values
            if self.directory is not None:
                self._checkpoint_locked(series)
        return len(times)

    def _checkpoint_locked(self, series: str) -> None:
        """Rewrite ``series``' journal to the retained history (atomic).

        Caller holds ``self._lock``, so no publish can append between
        the snapshot and the rewrite.  Pending buffered lines and the
        cached append handle are invalidated first: the replacement file
        supersedes them, and ``os.replace`` swaps the inode out from
        under any cached ``O_APPEND`` handle.
        """
        if series not in self._catalog:
            self._catalog[series] = f"{_safe(series)}.jsonl"
            self._write_catalog()
        path = self.journal_path(series)
        data = "".join(
            _encode_sample(t, v) + "\n"
            for t, v in zip(self._times.get(series, ()), self._values.get(series, ()))
        )
        self._journal.invalidate(path)
        atomic_replace_bytes(path, data.encode("utf-8"))
        self._obs_checkpoints.inc()

    def forget(self, series: str) -> bool:
        """Drop a series' retained history (the journal is untouched).

        The expiry hook: after ``forget``, :meth:`fetch` raises
        :class:`~repro.nws.errors.SeriesUnavailable` until the series is
        re-published or :meth:`recover`-ed.  Returns whether the series
        existed.
        """
        with self._lock:
            existed = series in self._times
            self._times.pop(series, None)
            self._values.pop(series, None)
        return existed

    # ----------------------------------------------------------- recovery

    def journal_path(self, series: str) -> Path | None:
        """Where ``series`` journals to (None when persistence is off)."""
        if self.directory is None:
            return None
        # Read-only against the publish-side cache (no write here: this
        # accessor is also called without the lock held).
        path = self._journal_paths.get(series)
        if path is None:
            path = self.directory / f"{_safe(series)}.jsonl"
        return path

    def recover(self, series: str) -> int:
        """Reload ``series`` from the persistence journal.

        Returns the number of samples recovered (bounded by capacity).
        Lines exactly as :meth:`publish` writes them are decoded with one
        regex match; every other line takes the ``json.loads`` path.
        Truncated or otherwise unparsable journal lines -- the normal
        aftermath of a crash mid-append -- are skipped and tallied in
        ``repro_memory_corrupt_journal_lines_total`` rather than aborting
        the recovery: a partial history is strictly more useful to the
        forecasters than none.  So are lines whose numbers overflow a
        float, lines that are not valid UTF-8 or nest too deeply for the
        JSON decoder, and lines whose time is non-finite or earlier than
        the last accepted one, which :meth:`publish` would have rejected.

        Raises
        ------
        RuntimeError
            If the store has no persistence directory.
        """
        path = self.journal_path(series)
        if path is None:
            raise RuntimeError("this MemoryStore has no persistence directory")
        # Read barrier: surface this store's own buffered appends before
        # reading the file, so publish -> recover on one store is lossless
        # even with group commit.
        self._journal.flush(path)
        if not path.exists():
            return 0
        times: list[float] = []
        values: list[float] = []
        match = _SAMPLE_LINE.fullmatch
        # read_text translates \r\n and lone \r to \n like line iteration
        # does; splitlines() would also split on \x0b, \x85, \u2028, ...
        # Bytes that are not UTF-8 decode to lone surrogates, which only
        # the line holding them fails on (encode() below).
        for line in path.read_text(
            encoding="utf-8", errors="surrogateescape"
        ).split("\n"):
            canonical = match(line)
            if canonical is not None:
                t, v = float(canonical[1]), float(canonical[2])
            else:
                line = line.strip()
                if not line:
                    continue
                try:
                    line.encode("utf-8")
                    sample = json.loads(line)
                    t = float(sample["t"])
                    v = float(sample["v"])
                except (
                    json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError, RecursionError,
                ):
                    # Journal corruption (torn write, bad field, an int
                    # beyond float range, invalid UTF-8, absurd nesting):
                    # count the line and keep going -- recovery is
                    # best-effort.
                    self._obs_corrupt.inc()
                    continue
            if not math.isfinite(t) or (times and t < times[-1]):
                # Would break the sorted-times invariant fetch bisects.
                self._obs_corrupt.inc()
                continue
            times.append(t)
            values.append(v)
        if len(times) > self.capacity:
            times = times[-self.capacity :]
            values = values[-self.capacity :]
        with self._lock:
            self._times[series] = times
            self._values[series] = values
        self._obs_recoveries.inc()
        self._obs_recovered.inc(len(times))
        return len(times)

    def recover_all(self) -> dict[str, int]:
        """Recover every series named in the on-disk catalog.

        The journal filename mangles series names lossily (``_safe``),
        so restarts read the real names back from ``series.json``.
        Returns ``{series: samples_recovered}`` in sorted series order.

        Raises
        ------
        RuntimeError
            If the store has no persistence directory.
        """
        if self.directory is None:
            raise RuntimeError("this MemoryStore has no persistence directory")
        return {series: self.recover(series) for series in sorted(self._catalog)}

    def sync(self) -> None:
        """Flush buffered journal appends and fsync the journal files."""
        self._journal.sync()

    def close(self) -> None:
        """Durably flush and release all journal handles."""
        self._journal.close()

    def discard_unflushed(self) -> None:
        """Drop buffered journal appends without writing (crash simulation)."""
        self._journal.discard()

    def _load_catalog(self) -> dict[str, str]:
        path = self.directory / _CATALOG_NAME
        if not path.exists():
            # Pre-catalog state directory (or first boot): fall back to
            # the journal filenames themselves.  Best-effort -- mangled
            # names stay mangled, but no history is stranded.
            return {
                p.stem: p.name for p in sorted(self.directory.glob("*.jsonl"))
            }
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            series = payload["series"]
            return {str(name): str(file) for name, file in series.items()}
        except (
            json.JSONDecodeError, KeyError, TypeError, ValueError,
            AttributeError, RecursionError,
        ):
            # Corrupt catalog: the journals themselves are still intact,
            # so rebuild the mapping from their filenames (best-effort).
            return {
                p.stem: p.name for p in sorted(self.directory.glob("*.jsonl"))
            }

    def _write_catalog(self) -> None:
        atomic_replace_json(
            self.directory / _CATALOG_NAME,
            {"version": 1, "series": dict(sorted(self._catalog.items()))},
        )


def _check_time(series: str, time: float) -> None:
    if not math.isfinite(time):
        raise ValueError(f"non-finite measurement time for {series!r}: {time}")


def _safe(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "._-") else "_" for c in name)
