"""Benchmark guard: durability is fast to recover and cheap to run.

Two kinds of gate on the :mod:`repro.nws.durable` persistence layer:

* **Recovery wall-time budget.**  Restoring a 1,000-series state
  directory (the acceptance scale) via :meth:`ServiceCore.restore` must
  finish well inside the budget -- a restarted forecast server should be
  answering queries in seconds, not minutes.
* **Counted log work.**  What persistence adds to a publish is counted,
  not timed, so the verdict does not depend on the machine: the
  ``os.write`` calls and bytes a steady-state publish costs at
  ``journal_flush_lines`` 1 and 64, and the fsyncs one maintenance
  heartbeat makes per tenant.  Each count is exact for the fixed
  workload below and is recorded with its budget (direction
  ``lower``).  A wall-clock ratio of the served publish path with and
  without persistence used to stand here; at about 3 us of a 65 us
  HTTP publish, the spread between runs decided it.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_RECORD_DIR, run_once
from repro.nws import ServiceCore, durable
from repro.perf import record

#: Acceptance scale for recovery: 1,000 series, a publish window each.
RECOVERY_SERIES = 1000
SAMPLES_PER_SERIES = 32

#: Recovery must finish comfortably inside this many seconds (measured
#: ~0.1s on a developer laptop; the budget is a pathology guard).
MAX_RESTORE_SECONDS = 5.0

#: Counted workload: steady-state publishes over a few series.
COUNTED_SERIES = 10
COUNTED_PUBLISHES = 1024

#: Budgets, per publish: one write per commit group, and one log line
#: ("publish" record of a 8-character series name) per sample.
MAX_WRITES_PER_PUBLISH = {1: 1.0, 64: 1.0 / 64}
MAX_BYTES_PER_PUBLISH = 48.0

#: A heartbeat fsyncs each tenant log once, and only after a write.
MAX_FSYNCS_PER_TENANT_HEARTBEAT = 1.0


class _CountingOs:
    """The ``os`` module, counting ``write`` calls, bytes and fsyncs."""

    def __init__(self):
        self.writes = self.bytes = self.fsyncs = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        self.writes += 1
        written = os.write(fd, data)
        self.bytes += written
        return written

    def fsync(self, fd):
        self.fsyncs += 1
        return os.fsync(fd)


def _counted(fn) -> _CountingOs:
    counter = _CountingOs()
    durable.os = counter
    try:
        fn()
    finally:
        durable.os = os
    return counter


def _populate(state_dir) -> None:
    """Write the acceptance-scale state directory (setup, not timed)."""
    core = ServiceCore(
        ("default",),
        clock=time.time,
        directory=state_dir,
        journal_flush_lines=512,
    )
    try:
        for s in range(RECOVERY_SERIES):
            name = f"cpu.{s:04d}"
            for i in range(SAMPLES_PER_SERIES):
                core.publish("default", name, 10.0 * i, 0.5)
    finally:
        core.close()


def test_bench_recovery_restore_1000_series(benchmark, tmp_path):
    state_dir = tmp_path / "state"
    _populate(state_dir)

    core = run_once(benchmark, ServiceCore.restore, state_dir)
    try:
        names = core.series_names("default")
        assert len(names) == RECOVERY_SERIES
        state = core.tenant("default")
        assert (
            sum(state.memory.count(n) for n in names)
            == RECOVERY_SERIES * SAMPLES_PER_SERIES
        )
    finally:
        core.close()

    elapsed = benchmark.stats.stats.min
    assert elapsed < MAX_RESTORE_SECONDS, (
        f"restoring {RECOVERY_SERIES} series took {elapsed:.2f}s, "
        f"budget {MAX_RESTORE_SECONDS:.0f}s"
    )


def test_bench_recovery_log_writes_per_publish(tmp_path):
    for flush_lines in (1, 64):
        core = ServiceCore(
            ("default",), directory=tmp_path / f"flush{flush_lines}",
            journal_flush_lines=flush_lines,
        )
        for i in range(COUNTED_SERIES):
            core.publish("default", f"cpu.{i:04d}", 0.0, 0.5)
        core.sync()

        def publishes():
            for i in range(COUNTED_PUBLISHES):
                core.publish(
                    "default", f"cpu.{i % COUNTED_SERIES:04d}", 10.0 * (i + 1), 0.5
                )

        counts = _counted(publishes)
        core.close()
        writes = counts.writes / COUNTED_PUBLISHES
        per_byte = counts.bytes / COUNTED_PUBLISHES
        for name, value, unit, budget in (
            (f"recovery_writes_per_publish_flush{flush_lines}", writes, "writes",
             MAX_WRITES_PER_PUBLISH[flush_lines]),
            (f"recovery_bytes_per_publish_flush{flush_lines}", per_byte, "B",
             MAX_BYTES_PER_PUBLISH),
        ):
            record(name, value, metric="per_publish", unit=unit, budget=budget,
                   direction="lower", directory=BENCH_RECORD_DIR)
        assert writes <= MAX_WRITES_PER_PUBLISH[flush_lines], (
            f"flush_lines={flush_lines}: {writes} os.write calls per publish"
        )
        assert per_byte <= MAX_BYTES_PER_PUBLISH, (
            f"flush_lines={flush_lines}: {per_byte} bytes per publish"
        )


def test_bench_recovery_fsyncs_per_heartbeat(tmp_path):
    tenants = ("a", "b", "c")
    core = ServiceCore(tenants, directory=tmp_path, journal_flush_lines=64)
    for tenant in tenants:
        for i in range(COUNTED_PUBLISHES):
            core.publish(tenant, f"cpu.{i % COUNTED_SERIES:04d}", float(i), 0.5)
    busy = _counted(core.maintain).fsyncs / len(tenants)
    idle = _counted(core.maintain).fsyncs
    core.close()
    record("recovery_fsyncs_per_heartbeat", busy, metric="per_tenant",
           unit="fsyncs", budget=MAX_FSYNCS_PER_TENANT_HEARTBEAT,
           direction="lower", directory=BENCH_RECORD_DIR)
    assert busy <= MAX_FSYNCS_PER_TENANT_HEARTBEAT, f"{busy} fsyncs per tenant log"
    assert idle == 0, f"an idle heartbeat made {idle} fsyncs"
