"""Benchmark guard: the forecast service sustains the acceptance load.

Two gates on :mod:`repro.nws.loadtest` against the real service stack,
and one on what each series it holds costs:

* **Acceptance scale, in process.**  The default 1,000-series /
  20,000-operation workload must complete through the in-process
  transport with a deterministic report, above a throughput floor.
* **HTTP parity under load.**  A smaller workload is replayed through a
  live :class:`~repro.nws.ForecastServer`; its digest must equal the
  in-process digest for the same config -- the transport-parity claim,
  proven at load rather than per-call -- and throughput must clear a
  deliberately loose floor (localhost HTTP easily does thousands of
  requests per second; the floor only catches pathological stalls such
  as a reintroduced Nagle/delayed-ACK interaction).

Floors are generous because CI machines are time-shared: they catch
stalls, not slowdowns.  Each leg records its throughput with its floor
(``requests_per_second``, direction ``higher``); whether a change made
the service slower is for ``benchmarks/e2e/compare.py`` to say.

* **Per-series state.**  How many series one server can hold depends on
  what each costs at rest, so two ``tracemalloc`` counts, repeatable to
  about 0.2%, are gated against a budget (direction ``lower``): the bytes per
  series of 1,000 shallow durable series (12 publishes and one query
  each), and the bytes of one restored day-long (8,640-sample) series
  after its first query.  Python objects only: the tenant log's file
  descriptor and the interpreter itself are not counted.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from benchmarks.conftest import record, run_once
from repro.nws import ForecastServer, NWSClient, ServiceCore
from repro.nws.loadtest import LoadtestConfig, run_loadtest
from repro.obs import MetricsRegistry, installed

#: The ISSUE acceptance floor: >= 1000 concurrent series.
ACCEPTANCE = LoadtestConfig(
    series=1000, clients=16, operations=20000, seed=0, jobs=4
)

#: HTTP leg kept smaller: socket round-trips dominate, and parity (not
#: scale) is the property under test.
HTTP_CONFIG = LoadtestConfig(series=120, clients=8, operations=2000, seed=0, jobs=4)

#: Wall-throughput floors (req/s).  In-process runs measure the service
#: core itself; HTTP adds stdlib socket overhead.
MIN_RPS_IN_PROCESS = 1000.0
MIN_RPS_HTTP = 100.0

#: Shallow series: how many, and the samples each is published.
SHALLOW_SERIES = 1000
SHALLOW_SAMPLES = 12
#: A restored series one day deep at the paper's 10-second cadence.
DEEP_SAMPLES = 8640

#: Traced bytes each case may hold: the values measured when the gate was
#: added (14,542 and 176,661 B on CPython 3.11.7, x86-64) plus about 5%.
#: With a deque per window and one error window object per mixture member
#: the same cases held 46,081 and 405,082 B.
MAX_SHALLOW_BYTES_PER_SERIES = 15_300
MAX_DEEP_SERIES_BYTES = 185_500


def _run_in_process(config: LoadtestConfig):
    with NWSClient.in_process(ServiceCore(tenants=config.tenants)) as base:
        return run_loadtest(base.for_tenant, config)


def _run_http(config: LoadtestConfig):
    with ForecastServer(tenants=config.tenants) as server:
        with NWSClient.connect(server.url) as base:
            return run_loadtest(base.for_tenant, config)


def test_bench_server_acceptance_load(benchmark):
    _run_in_process(HTTP_CONFIG)  # warm imports outside the timed round
    report = run_once(benchmark, _run_in_process, ACCEPTANCE)

    assert sum(report.op_counts.values()) == ACCEPTANCE.operations + ACCEPTANCE.clients
    assert report.series == 1000
    # Same seed, same digest: the run is comparable across machines.
    assert report.digest == _run_in_process(ACCEPTANCE).digest
    assert report.wall_rps > MIN_RPS_IN_PROCESS, (
        f"in-process loadtest ran at {report.wall_rps:.0f} req/s, "
        f"floor {MIN_RPS_IN_PROCESS:.0f}"
    )
    record(
        "server_inprocess_rps",
        report.wall_rps,
        metric="requests_per_second",
        unit="req/s",
        budget=MIN_RPS_IN_PROCESS,
        direction="higher",
    )


def test_bench_server_http_parity_under_load(benchmark):
    local = _run_in_process(HTTP_CONFIG)
    remote = run_once(benchmark, _run_http, HTTP_CONFIG)

    assert remote.digest == local.digest, (
        "HTTP and in-process transports diverged under load: "
        f"{remote.digest} != {local.digest}"
    )
    assert remote.wall_rps > MIN_RPS_HTTP, (
        f"HTTP loadtest ran at {remote.wall_rps:.0f} req/s, "
        f"floor {MIN_RPS_HTTP:.0f}"
    )
    record(
        "server_http_rps",
        remote.wall_rps,
        metric="requests_per_second",
        unit="req/s",
        budget=MIN_RPS_HTTP,
        direction="higher",
    )


def _traced_bytes(build) -> int:
    """Traced bytes still held after ``build()``, which returns what holds them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held.close()
    return used


def test_bench_server_series_footprint(tmp_path):
    values = np.random.default_rng(0).uniform(size=(SHALLOW_SERIES, SHALLOW_SAMPLES))

    def shallow() -> ServiceCore:
        core = ServiceCore(("default",), directory=tmp_path / "shallow")
        for i, row in enumerate(values.tolist()):
            series = f"cpu.h{i:04d}"
            for j, value in enumerate(row):
                core.publish("default", series, 10.0 * j, value)
            core.query("default", series)
        return core

    deep_dir = tmp_path / "deep"
    core = ServiceCore(("default",), directory=deep_dir)
    for j, value in enumerate(np.random.default_rng(1).uniform(size=DEEP_SAMPLES).tolist()):
        core.publish("default", "cpu.deep", 10.0 * j, value)
    core.close()

    def deep() -> ServiceCore:
        restored = ServiceCore.restore(deep_dir)
        restored.query("default", "cpu.deep")
        return restored

    with installed(MetricsRegistry()):
        shallow_bytes = _traced_bytes(shallow) / SHALLOW_SERIES
        deep_bytes = _traced_bytes(deep)
    for name, value, budget in (
        ("server_shallow_series_bytes", shallow_bytes, MAX_SHALLOW_BYTES_PER_SERIES),
        ("server_deep_series_bytes", deep_bytes, MAX_DEEP_SERIES_BYTES),
    ):
        record(
            name,
            value,
            metric="traced_bytes",
            unit="B",
            budget=budget,
            direction="lower",
        )
    assert shallow_bytes <= MAX_SHALLOW_BYTES_PER_SERIES, (
        f"a shallow queried series holds {shallow_bytes:,.0f} B, "
        f"budget {MAX_SHALLOW_BYTES_PER_SERIES:,} B"
    )
    assert deep_bytes <= MAX_DEEP_SERIES_BYTES, (
        f"a restored {DEEP_SAMPLES}-sample series holds {deep_bytes:,} B, "
        f"budget {MAX_DEEP_SERIES_BYTES:,} B"
    )
