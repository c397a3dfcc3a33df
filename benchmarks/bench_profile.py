"""Benchmark guard: worker telemetry merge + profiling stays near-free.

Every simulation now runs under a scoped worker registry/tracer whose
snapshot and spans are merged back into the parent's sinks.  The guard
compares a full profiled run -- parent registry and tracer installed,
snapshots merged, spans imported, profile rendered -- against the same
run with null parent sinks (merge and import become no-ops).  Budget:
5% wall-time overhead, same bar as the base instrumentation in
``bench_obs``.

Comparative timings use interleaved min-of-N on CPU time, for the same
reasons ``bench_obs`` does: the minimum is the least noisy estimator on
a time-shared machine, and interleaving spreads frequency drift across
both variants.
"""

from __future__ import annotations

import time

from benchmarks.conftest import record, run_once
from repro.experiments.testbed import TestbedConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    installed,
    profile_spans,
    render_folded,
    traced,
)
from repro.runner import Runner

#: Three simulated hours of one testbed host per round (same scale as
#: the bench_obs budget run).
CONFIG = TestbedConfig(duration=10800.0, seed=5)

#: Allowed profiled-over-plain wall-time ratio.
MAX_OVERHEAD = 1.05


def _run_plain() -> None:
    # Fresh Runner, memory-only cache: every call truly re-simulates.
    # Worker-side telemetry still runs (it always does); the parent
    # sinks are the nulls, so merge and span import are no-ops.
    Runner().run_one("thing1", CONFIG)


def _run_profiled() -> str:
    runner = Runner()
    registry = MetricsRegistry()
    tracer = Tracer(clock=lambda: 0.0)
    with installed(registry), traced(tracer):
        runner.run_one("thing1", CONFIG)
    assert registry.snapshot()["repro_runner_host_seconds"], "merge lost telemetry"
    return render_folded(profile_spans(tracer.spans))


def _timed(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def test_bench_profile_overhead(benchmark):
    _run_plain()  # warm imports and caches outside the timed rounds
    _run_profiled()
    plain_time = float("inf")
    profiled_time = float("inf")
    for _ in range(9):
        plain_time = min(plain_time, _timed(_run_plain))
        profiled_time = min(profiled_time, _timed(_run_profiled))

    folded = run_once(benchmark, _run_profiled)
    assert "kernel.run" in folded, "profiled run produced no span tree"
    assert folded == _run_profiled(), "profile output must be byte-stable"

    ratio = profiled_time / plain_time
    record(
        "profile_overhead_ratio",
        ratio,
        metric="overhead_ratio",
        unit="x",
        budget=MAX_OVERHEAD,
        direction="lower",
    )
    assert ratio < MAX_OVERHEAD, (
        f"profiled run took {profiled_time * 1e3:.1f} ms vs "
        f"{plain_time * 1e3:.1f} ms plain ({(ratio - 1) * 100:.1f}% overhead, "
        f"budget {(MAX_OVERHEAD - 1) * 100:.0f}%)"
    )
