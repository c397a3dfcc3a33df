"""Crash-safe persistence for the NWS forecast service.

Every byte the service persists flows through this module, and no other
module knows a file name or a record's syntax.  A state directory holds
``MANIFEST.json`` (``{"state_version": 2, "tenants": [...]}``) and one
append-only log per tenant, ``<tenant>/log.jsonl``.  The manifest and a
compacted log are replaced atomically (:func:`atomic_replace_bytes`);
everything else is appended through :class:`JournalWriter`, so a crash
loses at most the last commit group and never corrupts earlier records.

Each mutation of a tenant's memory or name server appends its record to
the :class:`TenantLog` *before* it changes memory, so replaying the log
gives back the live store as of its last durable record, by
construction.  A record is one line of canonical text::

    {"publish": <series>, "t": <number>, "v": <number>}
    {"forget": <series>}
    {"replace": <series>, "t": [<number>, ...], "v": [<number>, ...]}
    {"register": <name>, "kind": <string>, "attributes": {...}, "expires_at": <number>}
    {"refresh": <name>, "expires_at": <number>}
    {"unregister": <name>}

Strings are ``json.dumps`` literals (ASCII only).  A number is
``repr(float)``, ``Infinity``, ``-Infinity``, ``NaN`` for the positive
quiet NaN, or ``NaN:<16 hex digits>`` for any other NaN, so every value
round-trips bit for bit.  One compiled regex decodes a line; any other
line is counted in ``repro_memory_corrupt_journal_lines_total`` and
skipped.
"""

from __future__ import annotations

import errno
import json
import os
import re
import struct
import threading
from array import array
from dataclasses import dataclass, field
from dataclasses import replace as _replace
from functools import lru_cache
from pathlib import Path

from repro.nws.errors import ServerOverloaded
from repro.nws.nameserver import Registration

__all__ = [
    "LOG_NAME",
    "MANIFEST_NAME",
    "STATE_VERSION",
    "JournalWriter",
    "LogState",
    "TenantLog",
    "atomic_replace_bytes",
    "atomic_replace_json",
    "fsync_dir",
    "read_manifest",
    "tenant_directory",
    "write_manifest",
]

#: On-disk layout version written to and checked in the manifest.
STATE_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
LOG_NAME = "log.jsonl"

#: A log holding more than this many times the records its live state
#: needs is rewritten to that state by :meth:`TenantLog.compact`.
_COMPACT_RATIO = 4

#: How the log is opened: write-only appends, created on first use.
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT

#: ``errno`` values of an ``open`` that failed for want of a descriptor.
_OUT_OF_DESCRIPTORS = (errno.EMFILE, errno.ENFILE)


def fsync_dir(directory) -> None:
    """fsync a directory so a just-``os.replace``-d entry is durable.

    ``os.replace`` makes the rename atomic but only the *directory*
    fsync makes it durable across power loss.  Best-effort: platforms
    that cannot open directories (or filesystems that reject fsync on
    them) are silently tolerated -- atomicity still holds.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # lint: ignore[EXC001] -- best-effort by contract: atomicity holds without it
        pass
    finally:
        os.close(fd)


def atomic_replace_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    Writes to ``<path>.tmp`` in the same directory (same filesystem, so
    the final ``os.replace`` is a true atomic rename), fsyncs the temp
    file, renames it over the target, then fsyncs the directory.  A
    crash at any point leaves either the complete old file or the
    complete new file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_replace_json(path, payload) -> None:
    """Atomically replace ``path`` with ``payload`` as canonical JSON.

    Sorted keys + compact separators so snapshot files are byte-stable
    for a given payload (diffs and digests stay meaningful).
    """
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    atomic_replace_bytes(path, data.encode("utf-8"))


# -------------------------------------------------------------- manifest


def tenant_directory(state_dir, tenant: str) -> Path:
    """Where ``tenant``'s log lives under ``state_dir``.

    Raises
    ------
    ValueError
        ``tenant`` is not a plain directory name inside ``state_dir``.
    """
    if (
        tenant in ("", ".", "..")
        or "/" in tenant
        or "\0" in tenant
        or tenant.startswith(MANIFEST_NAME)
    ):
        raise ValueError(f"tenant name {tenant!r} cannot name a state directory")
    os.fsencode(tenant)  # a UnicodeEncodeError is a ValueError
    return Path(state_dir) / tenant


def write_manifest(state_dir, tenants) -> None:
    """Name the tenants a state directory holds, at this layout version."""
    atomic_replace_json(
        Path(state_dir) / MANIFEST_NAME,
        {"state_version": STATE_VERSION, "tenants": sorted(tenants)},
    )


def read_manifest(state_dir) -> list[str]:
    """The tenants named in ``state_dir``'s manifest.

    Raises
    ------
    FileNotFoundError
        ``state_dir`` has no manifest (not a state directory).
    ValueError
        The manifest is not a JSON object whose ``tenants`` is a list of
        plain directory names, or its ``state_version`` is from another
        layout (a version-1 directory of per-series journals among them).
    """
    path = Path(state_dir) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} under {state_dir}; "
            "not a forecast-service state directory"
        )
    try:
        manifest = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} must hold a JSON object")
    version = manifest.get("state_version")
    if version != STATE_VERSION:
        raise ValueError(
            f"{path}: unsupported state_version {version!r} "
            f"(this build reads {STATE_VERSION})"
        )
    tenants = manifest.get("tenants")
    if not isinstance(tenants, list) or not all(
        isinstance(name, str) for name in tenants
    ):
        raise ValueError(f"{path}: 'tenants' must be a list of strings")
    for tenant in tenants:
        tenant_directory(state_dir, tenant)
    return tenants


# ---------------------------------------------------------------- writer


class JournalWriter:
    """Group-commit appends to one file through a raw ``O_APPEND`` descriptor.

    Appends are written to the OS -- one ``os.write`` per group -- once
    ``flush_lines`` are pending (``1``, the default, writes through), or
    on :meth:`flush` / :meth:`sync` / :meth:`close`.  The descriptor is
    opened on the first write.  A group whose write fails part-way is
    truncated off the file again before the error propagates.

    Thread-safe (one reentrant lock); a caller holding its own store lock
    always takes it *before* this writer's lock.
    """

    def __init__(self, path, *, flush_lines: int = 1):
        if flush_lines < 1:
            raise ValueError(f"flush_lines must be >= 1, got {flush_lines}")
        self.path = Path(path)
        self.flush_lines = int(flush_lines)
        self._lock = threading.RLock()
        self._fd: int | None = None
        self._pending: list[str] = []
        #: Lines in the file, counted when it was last read or rewritten
        #: and on each append since.
        self.lines = 0
        self._unsynced = False

    def append(self, line: str) -> None:
        """Buffer one ``line`` (no trailing newline).

        Raises
        ------
        ServerOverloaded
            No file descriptor was left to open the file
            (``reason="descriptors"``, HTTP 429); the line is dropped.
        OSError
            The group this line completed could not be written; the line
            is dropped (lines buffered before it stay pending).
        """
        with self._lock:
            self._pending.append(line)
            if len(self._pending) >= self.flush_lines:
                try:
                    self.flush()
                except OSError as exc:
                    self._pending.pop()
                    if exc.errno in _OUT_OF_DESCRIPTORS:
                        raise ServerOverloaded(
                            f"cannot append to {self.path}: out of file "
                            f"descriptors ({exc.strerror}); nothing was kept",
                            reason="descriptors",
                        ) from exc
                    raise
            self.lines += 1

    def pending(self) -> int:
        """Lines buffered but not yet written to the OS."""
        with self._lock:
            return len(self._pending)

    def flush(self) -> int:
        """Write pending lines to the OS; returns how many were written."""
        with self._lock:
            flushed = len(self._pending)
            if flushed:
                if self._fd is None:
                    self._fd = os.open(self.path, _APPEND_FLAGS, 0o666)
                _write_lines(self._fd, self._pending)
                self._pending.clear()
                self._unsynced = True
            return flushed

    def sync(self) -> int:
        """:meth:`flush`, then fsync the file if anything reached it since
        the last sync (at most one fsync)."""
        with self._lock:
            flushed = self.flush()
            if self._unsynced:
                os.fsync(self._fd)
                self._unsynced = False
            return flushed

    def discard(self) -> None:
        """Drop pending lines and the descriptor WITHOUT writing.

        Crash simulation: what a ``kill -9`` would lose.
        """
        with self._lock:
            self._pending.clear()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            self._unsynced = False

    def close(self) -> None:
        """Flush + fsync, then close the descriptor."""
        with self._lock:
            self.sync()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def _write_lines(fd: int, lines: list[str]) -> None:
    """One ``os.write`` of ``lines`` (looping on short writes); a write
    that fails part-way is truncated off before the error propagates."""
    data = memoryview("".join([line + "\n" for line in lines]).encode("utf-8"))
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    except OSError:
        if written:
            os.ftruncate(fd, os.fstat(fd).st_size - written)
        raise


# ---------------------------------------------------------------- records

_QUIET_NAN = struct.pack(">d", float("nan"))


def _number(x: float) -> str:
    """One number as the log spells it; round-trips bit for bit."""
    if x - x == 0.0:
        return repr(x)
    if x == x:
        return "Infinity" if x > 0 else "-Infinity"
    bits = struct.pack(">d", x)
    return "NaN" if bits == _QUIET_NAN else "NaN:" + bits.hex()


@lru_cache(maxsize=1 << 16)
def _string(text: str) -> str:
    return json.dumps(text)


def _publish_line(series: str, t: float, v: float) -> str:
    return '{"publish": %s, "t": %s, "v": %s}' % (_string(series), _number(t), _number(v))


def _replace_line(series: str, times, values) -> str:
    return '{"replace": %s, "t": [%s], "v": [%s]}' % (
        _string(series), ", ".join(map(_number, times)), ", ".join(map(_number, values))
    )


def _register_line(entry: Registration) -> str:
    attributes = ", ".join(
        f"{_string(k)}: {_string(v)}" for k, v in sorted(entry.attributes.items())
    )
    return '{"register": %s, "kind": %s, "attributes": {%s}, "expires_at": %s}' % (
        _string(entry.name), _string(entry.kind), attributes, _number(entry.expires_at)
    )


# Possessive quantifiers: a line that does not match fails fast.
_STR = rb'"(?:[ !#-\[\]-~]++|\\["\\/bfnrt]|\\u[0-9a-f]{4})*+"'
_NUM = (
    rb"(?:-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][-+]?+[0-9]++)?+|[eE][-+]?+[0-9]++)"
    rb"|NaN(?::[0-9a-f]{16})?+|-?+Infinity)"
)
_LIST = rb"\[(?:%s(?:, %s)*+)?+\]" % (_NUM, _NUM)
_ATTRS = rb"\{(?:%s: %s(?:, %s: %s)*+)?+\}" % (_STR, _STR, _STR, _STR)

#: Every whole line of a block: one of the records the encoders above
#: write (groups 1-14), or any other line (group 15).
_LINE = re.compile(
    rb'(?m)^(?:\{"publish": (%(s)s), "t": (%(n)s), "v": (%(n)s)\}'
    rb'|\{"forget": (%(s)s)\}'
    rb'|\{"replace": (%(s)s), "t": (%(l)s), "v": (%(l)s)\}'
    rb'|\{"register": (%(s)s), "kind": (%(s)s), "attributes": (%(a)s), '
    rb'"expires_at": (%(n)s)\}'
    rb'|\{"refresh": (%(s)s), "expires_at": (%(n)s)\}'
    rb'|\{"unregister": (%(s)s)\}'
    rb'|(.*))\n'
    % {b"s": _STR, b"n": _NUM, b"l": _LIST, b"a": _ATTRS}
)

#: Bytes read at a time: small enough that a block's decoded lines stay
#: well under the series' own arrays.
_BLOCK = 1 << 16


def _value(token: bytes) -> float:
    """Decode one number token the regex matched; ValueError or
    OverflowError if it is not one the encoder writes."""
    try:
        x = float(token)
    except ValueError:  # NaN:<hex>
        x = struct.unpack(">d", bytes.fromhex(token[4:].decode("ascii")))[0]
        if x == x:
            raise ValueError(f"{token!r} is not a NaN") from None
        return x
    if x - x != 0.0 and x == x and token[-1:] != b"y":
        raise OverflowError(f"{token!r} is beyond float range")
    return x


def _values(token: bytes) -> list[float]:
    return [_value(x) for x in token[1:-1].split(b", ")] if len(token) > 2 else []


def _text(literal: bytes) -> str:
    if b"\\" in literal:
        return json.loads(literal)
    return literal[1:-1].decode("ascii")


@dataclass
class LogState:
    """A replayed log: the run of each live and each forgotten series,
    trimmed to the capacity, and the registrations."""

    live: dict[str, tuple[array, array]] = field(default_factory=dict)
    forgotten: dict[str, tuple[array, array]] = field(default_factory=dict)
    registrations: dict[str, Registration] = field(default_factory=dict)
    corrupt: int = 0
    lines: int = 0


def _replay(f, capacity: int) -> tuple[LogState, int]:
    """Stream the log ``f`` (binary) into a :class:`LogState`, a block of
    whole lines at a time, decoding each block with one ``findall``.

    Returns the state and the byte offset just past the last whole line.
    """
    state = LogState()
    live, forgotten, registrations = state.live, state.forgotten, state.registrations
    runs: dict[bytes, tuple[array, array]] = {}  # live runs by series literal
    findall = _LINE.findall
    corrupt = lines = 0
    trim_at = 2 * capacity
    rest = b""
    while block := f.read(_BLOCK):
        block = rest + block
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        found = findall(block, 0, cut)
        lines += len(found)
        for record in found:
            try:
                if record[1]:  # publish
                    literal, t, v = record[0], float(record[1]), _value(record[2])
                    if t - t != 0.0:
                        raise ValueError("non-finite time")
                    run = runs.get(literal)
                    if run is None:
                        name = _text(literal)
                        run = runs[literal] = live.get(name)
                        if run is None:
                            run = runs[literal] = live[name] = (array("d"), array("d"))
                            forgotten.pop(name, None)
                    times, values = run
                    if times and t < times[-1]:
                        raise ValueError("time out of order")
                    times.append(t)
                    values.append(v)
                    if len(times) > trim_at:
                        del times[:-capacity]
                        del values[:-capacity]
                    continue
                if record[14] or not any(record):  # not a record / blank
                    corrupt += bool(record[14])
                    lines -= not record[14]
                    continue
                runs.clear()  # the runs change under their names below
                if record[3]:
                    name = _text(record[3])
                    if name in live:
                        forgotten[name] = live.pop(name)
                elif record[4]:
                    times = array("d", _values(record[5]))
                    values = array("d", _values(record[6]))
                    if len(times) != len(values):
                        raise ValueError("times/values length mismatch")
                    if any(t - t != 0.0 for t in times) or any(
                        b < a for a, b in zip(times, times[1:])
                    ):
                        raise ValueError("unordered or non-finite times")
                    name = _text(record[4])
                    live[name] = (times[-capacity:], values[-capacity:])
                    forgotten.pop(name, None)
                elif record[7]:
                    name = _text(record[7])
                    registrations[name] = Registration(
                        name=name,
                        kind=_text(record[8]),
                        attributes=json.loads(record[9]),
                        expires_at=_value(record[10]),
                    )
                elif record[11]:
                    name = _text(record[11])
                    expires_at = _value(record[12])
                    if name in registrations:
                        registrations[name] = _replace(
                            registrations[name], expires_at=expires_at
                        )
                else:
                    registrations.pop(_text(record[13]), None)
            except (ValueError, OverflowError):
                corrupt += 1
    for times, values in (*live.values(), *forgotten.values()):
        if len(times) > capacity:
            del times[:-capacity]
            del values[:-capacity]
    if rest:  # a torn final write: no newline
        corrupt += 1
        lines += 1
    state.corrupt, state.lines = corrupt, lines
    return state, f.tell() - len(rest)


# -------------------------------------------------------------- tenant log


class TenantLog(JournalWriter):
    """One tenant's append-only log, ``<directory>/log.jsonl``.

    ``registrations`` is the name-server state the log holds, kept by
    :meth:`register` / :meth:`refresh` / :meth:`unregister` and
    :meth:`replay` so that :meth:`compact` can write it.
    """

    def __init__(self, directory, *, flush_lines: int = 1):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        super().__init__(directory / LOG_NAME, flush_lines=flush_lines)
        self.registrations: dict[str, Registration] = {}

    def publish(self, series: str, t: float, v: float) -> None:
        self.append(_publish_line(series, t, v))

    def forget(self, series: str) -> None:
        self.append('{"forget": %s}' % _string(series))

    def replace(self, series: str, times, values) -> None:
        self.append(_replace_line(series, times, values))

    def register(self, entry: Registration) -> None:
        with self._lock:
            self.append(_register_line(entry))
            self.registrations[entry.name] = entry

    def refresh(self, entry: Registration) -> None:
        with self._lock:
            self.append(
                '{"refresh": %s, "expires_at": %s}'
                % (_string(entry.name), _number(entry.expires_at))
            )
            self.registrations[entry.name] = entry

    def unregister(self, name: str) -> None:
        with self._lock:
            self.append('{"unregister": %s}' % _string(name))
            self.registrations.pop(name, None)

    def replay(self, capacity: int) -> LogState:
        """Read the whole log back, one line at a time.

        Pending lines are written first (the read barrier).  A torn
        final line -- a crash mid-append -- is counted, skipped and cut
        off the file, so the next append starts a line of its own.
        """
        with self._lock:
            self.flush()
            try:
                f = open(self.path, "rb")
            except FileNotFoundError:
                return LogState()
            with f:
                state, end = _replay(f, capacity)
                if f.tell() > end:
                    os.truncate(self.path, end)
            self.lines = state.lines
            self.registrations = dict(state.registrations)
            return state

    def compact(self, runs: dict, forgotten: dict) -> bool:
        """Rewrite the log to the live state once it holds more than
        ``_COMPACT_RATIO`` times the records that state needs.

        ``runs`` and ``forgotten`` map each live and each forgotten
        series to its run; the caller's store lock keeps them still.
        Returns whether the log was rewritten.
        """
        with self._lock:
            needed = len(self.registrations) + sum(
                max(1, len(times)) for times, _ in runs.values()
            ) + sum(len(times) + 1 for times, _ in forgotten.values())
            if self.lines <= _COMPACT_RATIO * needed:
                return False
            out = []
            for series, (times, values) in (*runs.items(), *forgotten.items()):
                if times:
                    out.extend(_publish_line(series, t, v) for t, v in zip(times, values))
                else:
                    out.append(_replace_line(series, (), ()))
            out.extend('{"forget": %s}' % _string(series) for series in forgotten)
            out.extend(_register_line(e) for e in self.registrations.values())
            atomic_replace_bytes(self.path, "".join([line + "\n" for line in out]).encode())
            # The pending lines are in the new file already; the old
            # descriptor points at the replaced inode.
            self._pending.clear()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            self._unsynced = False
            self.lines = len(out)
            return True
