"""One append-only log per tenant: a restore equals the live store.

Every mutation of a tenant's memory and name server appends its record
to the tenant log before it changes memory, and ``ServiceCore.restore``
replays that log.  The properties here drive generated operation
sequences -- publish, forget, re-publish, replace, recover, compaction,
register, refresh and unregister, some of them with a log write that
fails part-way -- cut the log at arbitrary byte offsets, and check one
equality: the restored store is the live store as of the last durable
record, NaN bits, registrations and expiry times included.  A second
property feeds restore arbitrary bytes in the log and the manifest: it
gives back the valid records or one typed error, never anything else.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.nws import ServiceCore, durable
from repro.nws.durable import MANIFEST_NAME, write_manifest
from repro.nws.memory import MemoryStore
from repro.obs import MetricsRegistry, installed

TENANT = "default"


def _float(bits: int) -> float:
    return struct.unpack(">d", bits.to_bytes(8, "big"))[0]


def _bits(x: float) -> bytes:
    return struct.pack(">d", x)


#: NaNs of either sign, quiet and signalling, with and without payload.
NANS = [_float(b) for b in (
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
    0xFFF4000000000ABC, 0x7FFFFFFFFFFFFFFF,
)]
NAMES = ("cpu.a", 'cpu.ü"b', "x" * 300)
COMPONENTS = ("sensor.a", "memory.b")
TIMES = [-1e16, -1.5, -0.0, 0.0, 5e-324, 1.0, 2.5, 1e16]

values = st.one_of(st.sampled_from(NANS), st.floats())
ttls = st.one_of(st.none(), st.sampled_from([1.0, 60.0, 1e300, float("nan")]))
mutation = st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(NAMES), st.sampled_from(TIMES), values),
    st.tuples(st.just("forget"), st.sampled_from(NAMES)),
    st.tuples(st.just("replace"), st.sampled_from(NAMES), st.sampled_from(["same", "halve", "empty"])),
    st.tuples(st.just("recover"), st.sampled_from(NAMES)),
    st.tuples(
        st.just("register"), st.sampled_from(COMPONENTS),
        st.sampled_from(["sensor", "memory"]),
        st.dictionaries(st.sampled_from(["host", "ü"]), st.text("ab\"ü", max_size=3), max_size=2),
        ttls,
    ),
    st.tuples(st.just("refresh"), st.sampled_from(COMPONENTS), st.sampled_from([5.0, 1e9])),
    st.tuples(st.just("unregister"), st.sampled_from(COMPONENTS)),
)
ops = st.lists(
    st.one_of(
        mutation,
        mutation,
        st.tuples(st.just("fail"), mutation),  # its log write fails part-way
        st.tuples(st.just("compact")),
    ),
    max_size=40,
)


class _FullDisk:
    """The ``os`` module, except that ``write`` stores half the bytes,
    then fails, as ``write(2)`` on a full disk does."""

    def __init__(self):
        self.full = False

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.full = True
        return os.write(fd, bytes(data[: len(data) // 2]))


def apply(core: ServiceCore, op) -> None:
    """Run one operation; a rejected one raises, as the service would."""
    state = core.tenant(TENANT)
    memory = state.memory
    kind = op[0]
    if kind == "fail":
        durable.os = _FullDisk()
        try:
            apply(core, op[1])
        finally:
            durable.os = os
    elif kind == "publish":
        memory.publish(*op[1:])
    elif kind == "forget":
        memory.forget(op[1])
    elif kind == "replace":
        times, vals = memory.fetch(op[1]) if op[1] in memory.series_names() else ([], [])
        if op[2] == "halve":
            times, vals = times[::2], vals[::2]
        elif op[2] == "empty":
            times, vals = [], []
        memory.replace(op[1], times, vals)
    elif kind == "recover":
        memory.recover(op[1])
    elif kind == "compact":
        memory.compact()
    elif kind == "register":
        core.register(TENANT, op[1], op[2], op[3], ttl=op[4])
    elif kind == "refresh":
        core.refresh(TENANT, op[1], ttl=op[2])
    else:
        state.nameserver.unregister(op[1])


def snapshot(core: ServiceCore):
    """The store as bytes: live series, recoverable runs, registrations."""
    state = core.tenant(TENANT)
    memory = state.memory

    def run(times, vals):
        return bytes(times), bytes(vals)

    live = {s: run(*(a.tobytes() for a in memory.fetch(s))) for s in memory.series_names()}
    forgotten = {s: run(t.tobytes(), v.tobytes()) for s, (t, v) in memory._forgotten.items()}
    registrations = sorted(
        (e.name, e.kind, sorted(e.attributes.items()), _bits(e.expires_at))
        for e in state.nameserver.entries()
    )
    return live, forgotten, registrations


def restored_at(state_dir: Path, log: Path, cut: int, capacity: int):
    """Snapshot of a core restored from a copy of ``state_dir`` whose
    log is cut to its first ``cut`` bytes."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "state"
        shutil.copytree(state_dir, copy)
        if log.exists():
            os.truncate(copy / log.relative_to(state_dir), cut)
        restored = ServiceCore.restore(copy, memory_capacity=capacity)
        try:
            return snapshot(restored)
        finally:
            restored.close()


class TestCrashPoints:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(ops=ops, capacity=st.integers(1, 5), data=st.data())
    def test_restore_equals_the_live_store_at_the_last_durable_record(
        self, ops, capacity, data
    ):
        with tempfile.TemporaryDirectory() as directory, installed(MetricsRegistry()):
            durable_ratio, durable._COMPACT_RATIO = durable._COMPACT_RATIO, 0
            try:
                core = ServiceCore(directory=directory, memory_capacity=capacity)
                log = core.tenant(TENANT).memory.log.path

                def size() -> int:
                    return log.stat().st_size if log.exists() else 0

                # (log size, live store) after each operation since the
                # log was last rewritten.
                durable_states = [(0, snapshot(core))]
                for op in ops:
                    try:
                        apply(core, op)
                    except (ValueError, LookupError, OSError):
                        pass  # rejected: must have changed nothing
                    if op[0] == "compact":
                        durable_states = []
                    durable_states.append((size(), snapshot(core)))
                    if op[0] == "fail":  # a later op may mask what it left
                        assert restored_at(Path(directory), log, size(), capacity) == (
                            durable_states[-1][1]
                        )
                # The whole log, and one arbitrary crash point in it.
                drawn = data.draw(st.integers(durable_states[0][0], size()), label="cut")
                for cut in (size(), drawn):
                    want = [s for end, s in durable_states if end <= cut][-1]
                    assert restored_at(Path(directory), log, cut, capacity) == want
                core.close()
            finally:
                durable._COMPACT_RATIO = durable_ratio


class TestFoundInputs:
    """Inputs where a restore used to differ from the live store."""

    def test_forget_then_republish_earlier(self, tmp_path):
        store = MemoryStore(capacity=1, directory=tmp_path)
        for _ in range(4):
            store.publish("s", -1e16, 0.5)
        store.publish("s", -1.5, 0.5)
        store.forget("s")
        store.publish("s", -1e16, 0.25)
        assert store.fetch("s")[0].tolist() == [-1e16]
        assert store.recover("s") == 1
        assert store.fetch("s")[0].tolist() == [-1e16]
        assert MemoryStore(capacity=1, directory=tmp_path).recover() == 1

    def test_nan_bits_survive_a_restore(self, tmp_path):
        core = ServiceCore(directory=tmp_path)
        for t, v in enumerate(NANS):
            core.publish(TENANT, "s", float(t), v)
        core.register(TENANT, "sensor.a", "sensor", ttl=float("nan"))
        core.close()
        restored = ServiceCore.restore(tmp_path)
        assert [_bits(v) for v in restored.fetch(TENANT, "s")[1]] == [
            _bits(v) for v in NANS
        ]
        (entry,) = restored.tenant(TENANT).nameserver.entries()
        assert _bits(entry.expires_at) == _bits(float("nan"))
        restored.close()

    def test_replace_whose_log_write_fails_changes_nothing(self, tmp_path):
        # The log cannot be opened (no descriptor left): the replace
        # fails typed, and both the live store and the log keep the old
        # history.
        program = textwrap.dedent("""
            import json, os, resource, sys
            from repro.nws import ServiceCore
            from repro.nws.wire import envelope_for_exception

            state = sys.argv[1]
            core = ServiceCore(directory=state)
            for t in range(5):
                core.publish("default", "s", float(t), 0.5)
            core.close()
            core = ServiceCore.restore(state)
            memory = core.tenant("default").memory
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            spare = []
            while True:
                try:
                    spare.append(os.open(os.devnull, os.O_RDONLY))
                except OSError:
                    break
            try:
                memory.replace("s", [0.0], [0.25])
                status = 200
            except Exception as exc:
                status = envelope_for_exception(exc)[0]
            for fd in spare:
                os.close(fd)
            live = memory.fetch("s")[1].tolist()
            core.close()
            recovered = ServiceCore.restore(state).fetch("default", "s")[1].tolist()
            print(json.dumps({"status": status, "live": live, "recovered": recovered}))
        """)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-c", program, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["status"] == 429
        assert result["live"] == [0.5] * 5
        assert result["recovered"] == result["live"]


class TestNumberShapes:
    """The log reads a number only in a shape the encoder writes."""

    @staticmethod
    def recovered(log: bytes):
        """(live runs, corrupt lines) of a store recovered from ``log``."""
        with tempfile.TemporaryDirectory() as directory, installed(MetricsRegistry()) as registry:
            (Path(directory) / durable.LOG_NAME).write_bytes(log)
            store = MemoryStore(directory=directory)
            store.recover()
            live = {s: [_bits(x) for x in store.fetch(s)[1]] for s in store.series_names()}
            corrupt = registry.snapshot()["repro_memory_corrupt_journal_lines_total"]
            return live, sum(sample["value"] for sample in corrupt["samples"])

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float_restores_bit_exactly(self, x):
        number = repr(x).encode()
        log = (
            b'{"publish": "p", "t": %s, "v": %s}\n' % (number, number)
            + b'{"replace": "r", "t": [0.0, 1.0], "v": [%s, %s]}\n' % (number, number)
        )
        assert self.recovered(log) == ({"p": [_bits(x)], "r": [_bits(x)] * 2}, 0)

    def test_a_digit_run_with_an_exponent_is_counted_not_restored(self):
        # float() reads it as 1e297, but repr() never writes this shape.
        log = b'{"publish": "p", "t": 0.0, "v": 1%s.0e-103}\n' % (b"0" * 400)
        assert self.recovered(log) == ({}, 1)


# ------------------------------------------------------ typed errors


def _lines(core: ServiceCore) -> list[bytes]:
    core.sync()
    return core.tenant(TENANT).memory.log.path.read_bytes().splitlines(keepends=True)


@st.composite
def _junk(draw, lines):
    """One line restore must skip: arbitrary bytes, or a real record
    torn, renamed, spelt with a number beyond float range or a bogus
    expiry, or holding a byte that is not UTF-8."""
    line = draw(st.sampled_from(lines)).rstrip(b"\n")
    kind = draw(st.sampled_from(["bytes", "torn", "kind", "number", "expiry", "utf8"]))
    if kind == "torn":
        junk = line[: draw(st.integers(1, len(line) - 1))]
    elif kind == "kind":
        junk = line.replace(b'{"', b'{"un', 1)
    elif kind == "number":
        junk = re.sub(
            rb"[0-9]+\.[0-9]+(?:e[-+][0-9]+)?", b"1" + b"0" * 400 + b".0", line, count=1
        )
    elif kind == "expiry":
        junk = re.sub(rb'"expires_at": [^}]*', b'"expires_at": "soon"', line)
    elif kind == "utf8":
        at = draw(st.integers(0, len(line)))
        junk = line[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + line[at:]
    else:
        junk = draw(st.binary(min_size=1, max_size=40))
    junk = junk.replace(b"\n", b" ")
    if junk == line or not junk.strip():
        junk = b"\xff" + junk
    return junk + b"\n"


class TestTypedErrorsAtTheStateBoundary:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(mutation, min_size=1, max_size=15), data=st.data())
    def test_junk_lines_are_skipped_and_counted(self, ops, data):
        with tempfile.TemporaryDirectory() as directory, installed(MetricsRegistry()) as registry:
            core = ServiceCore(directory=directory, memory_capacity=4)
            for op in [("publish", "cpu.a", 0.0, 0.5), *ops]:
                try:
                    apply(core, op)
                except (ValueError, LookupError):
                    pass
            want = snapshot(core)
            lines = _lines(core)
            core.close()
            junk = data.draw(st.lists(_junk(lines), min_size=1, max_size=6), label="junk")
            spots = data.draw(
                st.lists(st.integers(0, len(lines)), min_size=len(junk), max_size=len(junk)),
                label="spots",
            )
            mixed = list(lines)
            for at, line in sorted(zip(spots, junk), key=lambda pair: -pair[0]):
                mixed.insert(at, line)
            log = core.tenant(TENANT).memory.log.path
            log.write_bytes(b"".join(mixed))
            restored = ServiceCore.restore(directory, memory_capacity=4)
            assert snapshot(restored) == want
            corrupt = registry.snapshot()["repro_memory_corrupt_journal_lines_total"]
            assert sum(s["value"] for s in corrupt["samples"]) == len(junk)
            restored.close()

    @settings(max_examples=150, deadline=None)
    @given(
        manifest=st.one_of(
            st.binary(max_size=60),
            st.recursive(
                st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6)),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=3),
                    st.dictionaries(st.sampled_from(["state_version", "tenants", "x"]), inner, max_size=3),
                ),
                max_leaves=8,
            ).map(lambda payload: json.dumps(payload).encode()),
            st.lists(st.text(max_size=4), max_size=3).map(
                lambda tenants: json.dumps({"state_version": 2, "tenants": tenants}).encode()
            ),
        )
    )
    def test_manifest_bytes_give_a_core_or_one_typed_error(self, manifest):
        with tempfile.TemporaryDirectory() as directory:
            state = Path(directory) / "state"
            state.mkdir()
            (state / MANIFEST_NAME).write_bytes(manifest)
            try:
                core = ServiceCore.restore(state)
            except ValueError as exc:
                assert MANIFEST_NAME in str(exc) or "tenant" in str(exc)
                # Nothing was restored: no tenant directory appeared.
                assert [p.name for p in state.iterdir()] == [MANIFEST_NAME]
                return
            assert core.tenant_names() == sorted(json.loads(manifest)["tenants"])
            core.close()

    def test_a_version_1_state_directory_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"state_version": 1, "tenants": [TENANT]})
        )
        (tmp_path / TENANT).mkdir()
        (tmp_path / TENANT / "series.json").write_text("{}")
        with pytest.raises(ValueError, match="state_version 1"):
            ServiceCore.restore(tmp_path)
        assert main(["serve", "--port", "0", "--state-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "state_version" in captured.err


class TestHeartbeat:
    def test_one_fsync_per_tenant_log(self, tmp_path, monkeypatch):
        core = ServiceCore(("a", "b"), directory=tmp_path, journal_flush_lines=64)
        for tenant in ("a", "b"):
            for i in range(100):
                core.publish(tenant, f"cpu.{i % 10}", float(i), 0.5)
        synced = []
        monkeypatch.setattr(durable.os, "fsync", synced.append)
        core.maintain()
        assert len(synced) == 2
        core.maintain()  # nothing new reached either log
        assert len(synced) == 2
        monkeypatch.undo()
        core.close()


def test_write_manifest_names_the_layout(tmp_path):
    write_manifest(tmp_path, ["b", "a"])
    assert json.loads((tmp_path / MANIFEST_NAME).read_text()) == {
        "state_version": durable.STATE_VERSION, "tenants": ["a", "b"],
    }
