"""A test-only harness that checks the NWS stores mutate under their locks.

``install(monkeypatch)`` replaces each guarded attribute below with a
data descriptor.  The store's ``_lock`` becomes an ``RLock``, which
knows its owning thread, and each guarded map or list is a copy whose
mutators check that the calling thread holds that lock, also when the
store rebinds the attribute later (``MemoryStore.recover``).  A mutation
without the lock is appended to the returned list and raises
:class:`AssertionError` at the culprit line.
"""

from __future__ import annotations

import sys
import threading

from repro.nws.durable import TenantLog
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer

#: The attributes each class mutates only while it holds ``self._lock``.
GUARDED = {
    NameServer: ("_entries",),
    MemoryStore: ("_times", "_values", "_first", "_forgotten"),
    TenantLog: ("_pending",),
}

MUTATORS = {
    dict: ("__setitem__", "__delitem__", "pop", "popitem", "clear", "update", "setdefault"),
    list: ("__setitem__", "__delitem__", "append", "extend", "insert", "pop", "remove", "clear"),
}


def _checked(base: type, name: str):
    method = getattr(base, name)

    def mutator(self, *args, **kwargs):
        if not self._store._lock._is_owned():
            caller = sys._getframe(1)
            self._violations.append(
                f"{self._label}.{name} without the lock at "
                f"{caller.f_code.co_filename}:{caller.f_lineno}"
            )
            raise AssertionError(self._violations[-1])
        return method(self, *args, **kwargs)

    return mutator


CHECKED = {
    base: type(f"Checked{base.__name__}", (base,), {n: _checked(base, n) for n in names})
    for base, names in MUTATORS.items()
}


class _Field:
    """Data descriptor: holds a checked copy of whatever is assigned."""

    def __init__(self, name: str, violations: list[str]):
        self.name = name
        self.violations = violations

    def __get__(self, store, owner=None):
        return self if store is None else store.__dict__[self.name]

    def __set__(self, store, value) -> None:
        if self.name == "_lock":
            value = threading.RLock()
        else:
            value = CHECKED[dict if isinstance(value, dict) else list](value)
            value._store, value._violations = store, self.violations
            value._label = f"{type(store).__name__}.{self.name}"
        store.__dict__[self.name] = value


def install(monkeypatch) -> list[str]:
    """Guard every attribute in :data:`GUARDED` until ``monkeypatch`` is
    undone; returns the list the violations are appended to."""
    violations: list[str] = []
    for cls, names in GUARDED.items():
        for name in ("_lock", *names):
            monkeypatch.setattr(cls, name, _Field(name, violations), raising=False)
    return violations
