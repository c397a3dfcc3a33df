"""Invariants the paper's results rest on, each tested where it can break:
slotted streaming forecasters (Section 3), retries only through
:class:`repro.faults.RetryPolicy`, file writes in :mod:`repro.nws` only
through :mod:`repro.nws.durable`, and the NWS stores' locks
(:mod:`tests.lock_ownership`; the concurrency tests run under it).
"""

from __future__ import annotations

import ast
import builtins
import errno
import inspect
import io
import threading
from pathlib import Path

import pytest

import repro
from repro.core import extra_forecasters, forecasters, mixture
from repro.core.forecasters import Forecaster
from repro.nws import durable
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer

PACKAGE = Path(repro.__file__).resolve().parent


def test_forecasters_are_slotted_streaming_estimators():
    classes = {
        obj
        for module in (forecasters, extra_forecasters, mixture)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Forecaster)
    }
    assert {forecasters.LastValue, mixture.AdaptiveForecaster} <= classes
    for cls in classes:
        for klass in cls.__mro__[:-1]:
            assert "__slots__" in vars(klass), f"{klass.__name__} declares no __slots__"
            assert "__dict__" not in vars(klass), f"{klass.__name__} instances get a __dict__"
        assert callable(cls.update), cls
        assert list(inspect.signature(cls.forecast).parameters) == ["self"], cls


def _trees(*packages: str):
    for package in packages:
        for path in sorted((PACKAGE / package).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _broad(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return handler.type is None or any(
        _dotted(kind).rsplit(".", 1)[-1] in ("Exception", "BaseException") for kind in kinds
    )


def test_service_and_runner_leave_retries_to_the_retry_policy():
    found = []
    for path, tree in _trees("nws", "runner"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func) in ("time.sleep", "sleep"):
                found.append(f"{path.name}:{node.lineno} calls time.sleep")
            if not isinstance(node, (ast.For, ast.While)):
                continue
            for handler in ast.walk(node):
                if not isinstance(handler, ast.ExceptHandler) or not _broad(handler):
                    continue
                swallows = all(isinstance(stmt, ast.Pass) for stmt in handler.body)
                if swallows or any(isinstance(n, ast.Continue) for n in ast.walk(handler)):
                    found.append(f"{path.name}:{handler.lineno} swallows in a loop")
    assert found == []


def _opens_to_write(call: ast.Call, name: str) -> bool:
    at = 1 if name == "open" else 0  # open(file, mode) or path.open(mode)
    modes = call.args[at : at + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wxa+") for m in modes)


def test_only_durable_writes_files_in_the_service():
    found = []
    for path, tree in _trees("nws"):
        for node in ast.walk(tree):
            name = _dotted(node.func) if isinstance(node, ast.Call) else ""
            if path.name != "durable.py" and (
                (name == "open" or name.endswith(".open")) and _opens_to_write(node, name)
                or name in ("os.open", "os.fdopen")
                or name.endswith((".write_text", ".write_bytes"))
            ):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


class _TornFile(io.FileIO):
    """A file whose write stores half the bytes, then fails as a full disk does."""

    def write(self, data):
        super().write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


def _torn_open(file, mode="r", *args, **kwargs):
    return _TornFile(file, "w") if "w" in mode else builtins.open(file, mode, *args, **kwargs)


def _held(store: MemoryStore):
    return {s: tuple(a.tolist() for a in store.fetch(s)) for s in store.series_names()}


def test_interrupted_compaction_keeps_the_log_it_replaces(tmp_path, monkeypatch):
    store = MemoryStore(capacity=5, directory=tmp_path)
    for t in range(40):
        store.publish("a", float(t), t / 40)
        store.publish("b", float(t), 1 - t / 40)
    before = _held(store)
    store.forget("b")
    monkeypatch.setattr(durable, "open", _torn_open, raising=False)
    with pytest.raises(OSError):
        store.compact()
    monkeypatch.undo()
    fresh = MemoryStore(capacity=5, directory=tmp_path)
    fresh.recover()
    assert fresh.series_names() == ["a"]
    fresh.recover("b")
    assert _held(fresh) == before


def test_lock_ownership_flags_a_write_outside_the_lock(lock_ownership):
    ns = NameServer()
    ns.register("sensor.a", "sensor")
    with pytest.raises(AssertionError, match="NameServer._entries.pop without the lock"):
        ns._entries.pop("sensor.a")
    holding, done = threading.Event(), threading.Event()

    def hold():
        with ns._lock:
            holding.set()
            done.wait()

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert holding.wait(timeout=30.0)
        with pytest.raises(AssertionError):  # held, but by another thread
            ns._entries.pop("sensor.a")
    finally:
        done.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    with ns._lock:
        ns._entries.pop("sensor.a")
    assert len(lock_ownership) == 2
    lock_ownership.clear()
