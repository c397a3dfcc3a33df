"""Crash-safe file primitives for the NWS persistence layer.

Every byte the forecast service persists flows through this module: the
write-ahead journals behind :class:`~repro.nws.memory.MemoryStore`, the
series catalog, the tenant manifest, and the registration snapshots in
:mod:`repro.nws.service`.  Two disciplines make a ``kill -9`` at any
instant recoverable:

* **Whole-file state is replaced atomically** -- written to a same-
  directory temp file, flushed, fsynced, then ``os.replace``-d over the
  target so readers observe either the old bytes or the new bytes, never
  a torn mixture (:func:`atomic_replace_bytes`).
* **Journals are append-only with bounded buffering** --
  :class:`JournalWriter` keeps one raw ``O_APPEND`` file descriptor per
  journal and group-commits pending lines every ``flush_lines``
  appends, each group one ``os.write`` of its encoded bytes, so a crash
  loses at most one commit group and never corrupts earlier records
  (a torn *final* line is skipped by
  :meth:`~repro.nws.memory.MemoryStore.recover`).  A journal costs its
  series one descriptor and no Python buffer; when the process runs out
  of descriptors the writer closes its cached ones and retries once
  (:data:`OUT_OF_DESCRIPTORS`).

Lint rule DUR001 forbids bare ``open(..., "w")`` elsewhere in
``repro.nws`` precisely so these are the only persistence paths.
"""

from __future__ import annotations

import errno
import json
import os
import threading
from pathlib import Path

__all__ = [
    "OUT_OF_DESCRIPTORS",
    "JournalWriter",
    "atomic_replace_bytes",
    "atomic_replace_json",
    "fsync_dir",
]


#: ``errno`` values of an ``open`` that failed for want of a file
#: descriptor: the process (``EMFILE``) or the system (``ENFILE``) is at
#: its limit, and closing descriptors may let the same ``open`` succeed.
OUT_OF_DESCRIPTORS = (errno.EMFILE, errno.ENFILE)

#: How a journal is opened: write-only appends, created on first use.
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


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


def atomic_replace_bytes(path, data: bytes, *, sync: bool = True) -> None:
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
        if sync:
            f.flush()
            os.fsync(f.fileno())
    os.replace(tmp, path)
    if sync:
        fsync_dir(path.parent)


def atomic_replace_json(path, payload, *, sync: bool = True) -> None:
    """Atomically replace ``path`` with ``payload`` as canonical JSON.

    Sorted keys + compact separators so snapshot files are byte-stable
    for a given payload (diffs and digests stay meaningful).
    """
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    atomic_replace_bytes(path, data.encode("utf-8"), sync=sync)


class JournalWriter:
    """Group-commit append writer with cached raw ``O_APPEND`` descriptors.

    Appends accumulate in a per-journal memory buffer and are written to
    the OS (one ``write(2)`` per group) when a journal reaches
    ``flush_lines`` pending lines, or on :meth:`flush` / :meth:`sync` /
    :meth:`close`.  ``flush_lines=1`` (the default) writes through on
    every append -- the original per-publish behavior.  Larger values
    amortize the syscall over the publish hot path at the cost of losing
    at most ``flush_lines - 1`` records in a crash; readers must call
    :meth:`flush` first (a read barrier) to observe buffered appends.

    Each journal keeps one raw file descriptor open, not a buffered
    text file object: a group is encoded once and handed to
    ``os.write`` (looping on short writes), so nothing sits in a Python
    buffer between groups and a served series costs one ``int`` here.
    When opening a journal fails because the process or the system is
    out of file descriptors (``EMFILE`` / ``ENFILE``), the writer fsyncs
    and closes every cached descriptor (:meth:`release`) and tries once
    more; if that fails too, the ``OSError`` propagates and the line
    that needed the descriptor is not kept.

    Thread-safe; when a caller holds its own store lock, that lock is
    always taken *before* this writer's lock (no inversion: the writer
    never calls back into a store).
    """

    def __init__(self, *, flush_lines: int = 1):
        if flush_lines < 1:
            raise ValueError(f"flush_lines must be >= 1, got {flush_lines}")
        self.flush_lines = int(flush_lines)
        self._lock = threading.Lock()
        self._fds: dict[Path, int] = {}
        self._pending: dict[Path, list[str]] = {}

    # ------------------------------------------------------------- append

    def append(self, path, line: str) -> None:
        """Buffer one journal ``line`` (no trailing newline) for ``path``.

        Raises
        ------
        OSError
            The group this line completed could not be written; the line
            is dropped (lines buffered before it stay pending).
        """
        if not isinstance(path, Path):
            path = Path(path)
        with self._lock:
            pending = self._pending.setdefault(path, [])
            pending.append(line)
            if len(pending) >= self.flush_lines:
                try:
                    self._flush_locked(path)
                except OSError:
                    pending.pop()
                    raise

    def pending(self, path=None) -> int:
        """Lines buffered but not yet written to the OS."""
        with self._lock:
            if path is not None:
                return len(self._pending.get(Path(path), ()))
            return sum(len(lines) for lines in self._pending.values())

    # -------------------------------------------------------------- flush

    def _fd(self, path: Path) -> int:
        fd = self._fds.get(path)
        if fd is None:
            # O_APPEND semantics survive an in-place truncation (fault
            # injection) but NOT an os.replace -- checkpoints must call
            # invalidate() so the next append reopens the new inode.
            try:
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            except OSError as exc:
                if exc.errno not in OUT_OF_DESCRIPTORS:
                    raise
                self._release_locked()
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            self._fds[path] = fd  # lint: ignore[THRD001] -- every caller holds self._lock
        return fd

    def _flush_locked(self, path: Path) -> int:
        pending = self._pending.get(path)
        if not pending:
            return 0
        fd = self._fd(path)
        data = "".join(line + "\n" for line in pending).encode("utf-8")
        while data:
            data = data[os.write(fd, data) :]
        flushed = len(pending)
        pending.clear()
        return flushed

    def flush(self, path=None) -> int:
        """Write pending lines to the OS (one journal, or all).

        Returns the number of lines written.  This is the read barrier:
        call it before reading a journal file this writer appends to.
        """
        with self._lock:
            if path is not None:
                return self._flush_locked(Path(path))
            return sum(self._flush_locked(p) for p in list(self._pending))

    def sync(self, path=None) -> int:
        """:meth:`flush` then fsync the journal descriptor(s)."""
        with self._lock:
            paths = [Path(path)] if path is not None else list(self._pending)
            flushed = 0
            for p in paths:
                flushed += self._flush_locked(p)
            targets = [Path(path)] if path is not None else list(self._fds)
            for p in targets:
                fd = self._fds.get(p)
                if fd is not None:
                    os.fsync(fd)
            return flushed

    # ------------------------------------------------------- descriptors

    def release(self) -> None:
        """fsync and close every cached descriptor; pending lines stay.

        The next write to each journal reopens it.  Syncing first keeps
        :meth:`sync`'s promise for lines written through a descriptor
        that is no longer cached.
        """
        with self._lock:
            self._release_locked()

    def _release_locked(self) -> None:
        fds = list(self._fds.values())
        self._fds.clear()  # lint: ignore[THRD001] -- every caller holds self._lock
        failure = None
        for fd in fds:
            try:
                os.fsync(fd)
            except OSError as exc:
                failure = failure or exc
            finally:
                os.close(fd)
        if failure is not None:
            raise failure

    # --------------------------------------------------------- checkpoint

    def invalidate(self, path) -> None:
        """Drop pending lines and the cached descriptor for ``path``.

        Called after an atomic checkpoint rewrote the journal: the
        replacement file already contains every retained sample, so the
        pre-checkpoint pending lines are obsolete, and the cached
        descriptor points at the replaced (now unlinked) inode.
        """
        path = Path(path)
        with self._lock:
            self._pending.pop(path, None)
            fd = self._fds.pop(path, None)
            if fd is not None:
                os.close(fd)

    # -------------------------------------------------------------- close

    def discard(self) -> None:
        """Drop every pending line and descriptor WITHOUT writing.

        Crash simulation: what a ``kill -9`` would lose.  Tests use this
        to prove recovery tolerates losing the unflushed tail.
        """
        with self._lock:
            self._pending.clear()
            for fd in self._fds.values():
                os.close(fd)
            self._fds.clear()

    def close(self) -> None:
        """Flush + fsync everything, then close all descriptors."""
        with self._lock:
            for p in list(self._pending):
                self._flush_locked(p)
            self._release_locked()
