"""Self-test of the end-to-end benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs every workload for a fraction of a second (a 1-hour report, serve
phases of ~0.5 s) and checks the harness itself: metric names and units,
the percentile helper, self-time accounting, failure counting and the
digest check.  The tier-1 suite does not collect it (``testpaths``).
"""

from __future__ import annotations

import copy
import sys
import threading
import time

import pytest

import harness
import run
import spans
import workload_report
import workload_serve

sys.path.insert(0, str(harness.SRC))

SEED = 12345  # no golden digests: the tiny sizes record theirs
TINY_REPORT = ["--hours", "1", "--figure3-days", "0.5"]
REPORT_SETTINGS = {"args": TINY_REPORT, "setup_imports": 1, "warm_min_runs": 1}


def tiny_serve_settings() -> dict:
    settings = copy.deepcopy(harness.load_json("config.json")["serve"])
    settings.update(launches=1, probes=1, probe_seconds=0.2)
    settings["serve-ingest"].update(
        series=40, sensors=4, light_rps=200, light_seconds=0.5, light_requests=20, heavy_rps=400,
        heavy_seconds=0.5, capacity_batch=40, capacity_batches=2,
    )
    settings["serve-query"].update(
        series=4, samples=300, light_rps=200, light_seconds=0.5, light_requests=20, heavy_rps=400,
        heavy_seconds=0.5, capacity_batch=40, capacity_batches=2,
    )
    return settings


def run_tiny(workload: str, work, trace: bool, shared: dict, probe):
    work.mkdir(parents=True, exist_ok=True)
    if workload.startswith("report"):
        if trace:
            return workload_report.run_traced(workload, SEED, work, REPORT_SETTINGS, shared)
        return workload_report.run(
            workload, SEED, 0.0, work, REPORT_SETTINGS, shared, probe
        ), {}
    return workload_serve.run(workload, SEED, 1.0, work, tiny_serve_settings(), trace, probe)


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    reference = harness.load_json("config.json")["reference_pass_s"]
    with harness.CoreProbe(tmp_path_factory.mktemp("probe") / "probe.txt", reference) as p:
        yield p


@pytest.fixture(scope="module")
def untraced(tmp_path_factory, probe):
    shared: dict = {}
    root = tmp_path_factory.mktemp("untraced")
    return [run_tiny(w, root / w, False, shared, probe) for w in harness.WORKLOADS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory, probe):
    root = tmp_path_factory.mktemp("traced")
    return {w: run_tiny(w, root / w, True, {}, probe) for w in harness.WORKLOADS}


def test_reference_seconds_follow_the_probe(tmp_path):
    with harness.CoreProbe(tmp_path / "probe.txt", 1.0e-4) as probe:
        start = time.perf_counter()
        time.sleep(0.2)
        end = time.perf_counter()
        slowdown = probe.slowdown(start, end)
        assert slowdown > 0
        # An interval shorter than a pass gap is judged by its nearest passes.
        assert probe.slowdown(end - 1e-6, end) > 0
        result = harness.WorkloadResult("report-warm", SEED)
        result.put_reference("wall_s", [(start, end)], probe)
        assert result.samples["wall_s"] == 1
        assert result.raw["wall_s.wall"] == [end - start]
        assert result.metrics["wall_s"] == pytest.approx((end - start) / slowdown)
    assert probe.proc.returncode is not None


def test_every_metric_printed_with_its_unit(untraced, traced):
    spec = harness.benchmark_spec()
    units = harness.units()
    for kind, outcomes in (("end_to_end", untraced), ("per_layer", list(traced.values()))):
        names = [m["name"] for m in spec[kind]]
        lines, _ = run.render(outcomes, names, units, kind == "per_layer")
        for result, _ in outcomes:
            assert result.correct, (result.workload, result.problems)
            block = _block(lines, result.workload)
            for name in names:
                assert any(
                    line.split()[0] == name and line.split()[2] == units[name]
                    for line in block
                ), (result.workload, name)


def _block(lines: list[str], workload: str) -> list[str]:
    start = next(i for i, line in enumerate(lines) if line.startswith(f"== {workload} "))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("== ")), len(lines)
    )
    return [line for line in lines[start + 1:end] if not line.lstrip().startswith(
        ("attempted=", "problem:"))]


def test_traced_layers_are_the_workloads_own(traced):
    _, cold = traced["report-cold"]
    assert cold["sim.batch_s"] > 0 and cold["core.forecast_s"] > 0
    assert cold["runner.misses"] == 14 and cold["runner.store_s"] > 0
    _, warm = traced["report-warm"]
    assert warm.get("sim.batch_s", 0.0) == 0 and warm["runner.hits"] > 0
    _, ingest = traced["serve-ingest"]
    assert ingest["durable.appends"] > 0 and ingest["durable.replace_calls"] > 0
    _, query = traced["serve-query"]
    assert query["memory.recover_s"] > 0 and query["core.mixture_updates"] >= 4 * 300
    for _, layers in traced.values():
        assert layers["unattributed_s"] >= 0
        assert 0 <= layers["trace.overhead_share"] < 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(10000) == 99.9
    assert harness.tail_percentile(9999) == 99.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(999) == 95.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(19) is None


def test_nested_spans_never_double_count():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.01)

    inner = rec.wrap("inner", lambda: (leaf(), rec.wrap("leaf", leaf)()))
    outer = rec.wrap("outer", lambda: (time.sleep(0.01), inner(), inner()))
    root = rec.wrap(spans.ROOT, lambda: (outer(), rec.wrap("leaf", leaf)()))
    threads = [threading.Thread(target=root) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    snap = rec.snapshot()
    snap["span_cost"] = spans.calibrate(1000)
    own = sum(tally[0] for tally in snap["layers"].values())
    assert own == pytest.approx(snap["total"], rel=1e-9)
    # Each root sleeps six times for 10 ms; a sleep outside any leaf
    # span belongs to the layer whose own code slept.
    assert snap["layers"]["leaf"][0] >= 2 * 3 * 0.01
    assert snap["layers"]["inner"][0] >= 2 * 2 * 0.01
    assert snap["layers"]["outer"][0] >= 2 * 0.01
    metrics = spans.layer_metrics(snap)
    assert 0 <= metrics["unattributed_s"] < 0.005
    assert metrics["leaf_calls"] == 2 * 3


def test_injected_failed_response_raises_error_rate(tmp_path):
    from repro.nws import ForecastServer

    with ForecastServer(port=0) as server:
        worker = workload_serve.Worker(0, server.url, ["a", "b"], [])
        worker.planned = {"a": -10.0, "b": -10.0}
        jobs = [workload_serve.Op("publish", "a", 0.0, 0.5), workload_serve.Op("query", "a")]
        workload_serve.run_closed([worker], [jobs], digest=True)
        assert worker.failed == 0
        # A response the shadow does not expect, then an error response.
        worker.times["a"].append(5.0)
        jobs = [workload_serve.Op("query", "a"), workload_serve.Op("query", "b")]
        workload_serve.run_closed([worker], [jobs], digest=True)
        worker.close()
    assert worker.failed == 2 and worker.attempted == 4
    result = harness.WorkloadResult("serve-ingest", SEED)
    result.attempted, result.failed = worker.attempted, worker.failed
    lines, _ = run.render([(result, {})], [], harness.units(), False)
    assert "error_rate=0.5000" in lines[-1] and not result.correct


def test_corrupted_artifact_fails_the_digest_check(tmp_path, monkeypatch):
    out, cache = tmp_path / "out", tmp_path / "cache"
    child = harness.run_child(
        workload_report.report_argv(out, SEED, cache, TINY_REPORT), tmp_path / "log"
    )
    assert child.returncode == 0
    digests = workload_report.artifact_digests(out)
    golden = {"report": {str(SEED): digests}}
    monkeypatch.setattr(harness, "load_json", lambda name: golden)

    clean = harness.WorkloadResult("report-cold", SEED)
    harness.golden_check(clean, "report", SEED, digests)
    workload_report.check_artifacts(out, clean)
    assert clean.correct and clean.golden

    table = out / "table2.csv"
    table.write_text(table.read_text().replace("%", "% ", 1))
    corrupted = harness.WorkloadResult("report-cold", SEED)
    harness.golden_check(corrupted, "report", SEED, workload_report.artifact_digests(out))
    assert not corrupted.correct
    assert any("table2.csv" in problem for problem in corrupted.problems)
