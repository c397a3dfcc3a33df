"""Per-layer self-time spans, installed from outside the program.

The benchmark times each layer by wrapping the public functions a layer
is entered through (``run_batch``, ``ResultCache.store``,
``MemoryStore.publish``, ...).  Nothing under ``src/`` changes: the
wrappers are monkeypatched onto the imported modules by
:func:`install_report` or :func:`install_serve` before the program runs.

A span's *self time* is its duration minus the time covered by the spans
it called, so nested wrappers never count the same interval twice.  Spans
are tracked on a per-thread stack and tallied per layer in per-thread
tables, which are summed only when the benchmark reads them.

Run as a script this module is the traced launcher::

    python benchmarks/e2e/spans.py OUT.json -- report DIR --seed 7 ...
    python benchmarks/e2e/spans.py OUT.json -- serve --port 0 ...

It installs the wrappers for the given ``repro.cli`` command, calls
``repro.cli.main`` in-process and writes the aggregated spans to
``OUT.json`` when the command returns (a served command returns on
SIGINT).  SIGUSR1 writes the same snapshot without stopping, which is how
the serve workloads take counts over their deterministic phases only.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time

__all__ = ["Recorder", "install_report", "install_serve", "calibrate"]

#: The span layer whose self time is reported as unattributed: the
#: traced total itself (``repro.cli.main`` for the report, the HTTP
#: handler for the server).
ROOT = "root"


class _ThreadState:
    __slots__ = ("stack", "layers", "counts", "spans", "total")

    def __init__(self):
        self.stack: list[float] = []
        # layer -> [self seconds, inclusive seconds, calls]
        self.layers: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.spans = 0
        self.total = 0.0


class Recorder:
    """Self-time accounting for wrapped calls, safe across threads."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as a span of ``layer``.

        ``after(counts, seconds, args, kwargs, result)`` runs once the
        span closed, to tally work counts at the same boundary.
        """

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                children = stack.pop()
                tally = state.layers.get(layer)
                if tally is None:
                    tally = state.layers[layer] = [0.0, 0.0, 0]
                tally[0] += seconds - children
                tally[1] += seconds
                tally[2] += 1
                state.spans += 1
                if stack:
                    stack[-1] += seconds
                else:
                    state.total += seconds
            if after is not None:
                after(state.counts, seconds, args, kwargs, result)
            return result

        return span

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a free-standing count on this thread."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Every thread's tallies summed: layers, counts, spans, total."""
        layers: dict[str, list] = {}
        counts: dict[str, float] = {}
        spans = 0
        total = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (own, inclusive, calls) in list(state.layers.items()):
                tally = layers.setdefault(name, [0.0, 0.0, 0])
                tally[0] += own
                tally[1] += inclusive
                tally[2] += calls
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
            spans += state.spans
            total += state.total
        return {"layers": layers, "counts": counts, "spans": spans, "total": total}


def calibrate(calls: int = 20000) -> float:
    """Seconds one span adds to the call it wraps (wrapped minus bare)."""

    def bare():
        return None

    spanned = Recorder().wrap("calibration", bare)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            spanned()
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)


def _patch(rec: Recorder, owner, name: str, layer: str, after=None) -> None:
    setattr(owner, name, rec.wrap(layer, getattr(owner, name), after))


def _add(key: str, measure):
    """An ``after`` hook adding ``measure(args, result)`` to ``key``."""

    def after(counts, seconds, args, kwargs, result):
        counts[key] = counts.get(key, 0) + measure(args, result)

    return after


# ------------------------------------------------------------------ report


def install_report(rec: Recorder):
    """Wrap the report path: workload, sim, runner, core, analysis,
    experiments and report layers.

    Returns a callable giving the runners' cache hit and miss counts.
    """
    import repro.experiments as experiments
    import repro.experiments.figures as figures
    import repro.experiments.results as results
    import repro.experiments.tables as tables
    import repro.experiments.testbed as testbed
    import repro.report.export as export
    import repro.runner.cache as cache
    import repro.runner.engine as engine
    import repro.sim.kernel as kernel

    _patch(rec, testbed, "build_host", "workload.build")
    _patch(rec, testbed, "run_batch", "sim.batch")
    _patch(rec, kernel.Kernel, "run_until", "sim.event")

    def per_host(counts, seconds, args, kwargs, result):
        key = f"sim.host.{args[0]}_s"
        counts[key] = counts.get(key, 0.0) + seconds

    _patch(rec, engine, "simulate_host", "sim.self", per_host)

    runners: dict[int, object] = {}

    def keep_runner(counts, seconds, args, kwargs, result):
        runners[id(args[0])] = args[0]

    _patch(rec, engine.Runner, "run", "runner.self", keep_runner)
    _patch(rec, cache.ResultCache, "lookup", "runner.lookup")
    _patch(rec, cache.ResultCache, "store", "runner.store")

    def runner_counts() -> dict:
        stats = [r.stats for r in runners.values()]
        return {
            "runner.hits": sum(s.memory_hits + s.disk_hits for s in stats),
            "runner.misses": sum(s.misses for s in stats),
        }

    _patch(
        rec, tables, "forecast_series", "core.forecast",
        _add("core.forecast_samples", lambda args, result: len(args[0])),
    )
    _patch(rec, tables, "hurst_rs", "analysis.hurst")
    _patch(rec, tables, "aggregate_series", "analysis.aggregate")
    _patch(rec, figures, "aggregate_series", "analysis.aggregate")
    _patch(rec, figures, "acf", "analysis.acf")
    _patch(rec, figures, "pox_plot_data", "analysis.pox")
    for n in range(1, 7):
        _patch(rec, experiments, f"table{n}", "experiments.self")
    for n in range(1, 5):
        _patch(rec, experiments, f"figure{n}", "experiments.self")
    _patch(rec, export, "export_table_csv", "report.export")
    _patch(rec, export, "export_figure_csv", "report.export")
    _patch(rec, results.TableResult, "render", "report.render")
    _patch(rec, results.FigureResult, "render", "report.render")
    return runner_counts


# ------------------------------------------------------------------- serve


class _TimedLock:
    """A tenant lock whose acquisition is a ``service.lock_wait`` span."""

    def __init__(self, rec: Recorder, lock):
        self._lock = lock
        self._acquire = rec.wrap("service.lock_wait", lock.acquire)

    def acquire(self, *args, **kwargs):
        return self._acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self._acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


def install_serve(rec: Recorder):
    """Wrap the request path: server, wire, service, memory, durable,
    forecaster and the mixture in core."""
    import repro.core.mixture as mixture
    import repro.nws.durable as durable
    import repro.nws.forecaster as forecaster
    import repro.nws.memory as memory
    import repro.nws.server as server
    import repro.nws.service as service

    _patch(rec, server._Handler, "_handle", ROOT)
    _patch(rec, server._Handler, "_body", "wire.decode")
    _patch(rec, server.ForecastServer, "dispatch", "server.dispatch")
    _patch(rec, server.ForecastServer, "maintain_once", "server.maintain")

    def encoded(counts, seconds, args, kwargs, result):
        counts["wire.encode_bytes"] = counts.get("wire.encode_bytes", 0) + len(result)
        # The response body encoding, outside dispatch: what server.http_s
        # subtracts from the request time.
        counts["wire.response_s"] = counts.get("wire.response_s", 0.0) + seconds

    _patch(rec, server, "canonical", "wire.encode", encoded)
    for name in ("encode_report", "encode_fetch", "encode_registration"):
        _patch(rec, server, name, "wire.encode")

    observe = server.ForecastServer.observe_response

    def observe_response(self, status, seconds):
        rec.count("server.request_s", seconds)
        return observe(self, status, seconds)

    server.ForecastServer.observe_response = observe_response

    for op in ("publish", "query", "fetch"):
        _patch(rec, service.ServiceCore, op, f"service.{op}")
    for op in ("register", "refresh", "lookup"):
        _patch(rec, service.ServiceCore, op, "service.registry")
    restore = service.ServiceCore.__dict__["restore"].__func__
    service.ServiceCore.restore = classmethod(rec.wrap("server.startup", restore))

    tenant_init = service.TenantState.__init__

    def timed_tenant(self, *args, **kwargs):
        tenant_init(self, *args, **kwargs)
        self.lock = _TimedLock(rec, self.lock)

    service.TenantState.__init__ = timed_tenant

    _patch(rec, memory.MemoryStore, "publish", "memory.publish")
    _patch(
        rec, memory.MemoryStore, "fetch", "memory.fetch",
        _add("memory.fetch_samples", lambda args, result: len(result[0])),
    )
    _patch(rec, memory.MemoryStore, "recover", "memory.recover")
    _patch(rec, durable.JournalWriter, "append", "durable.append")
    _patch(rec, durable.JournalWriter, "sync", "durable.sync")
    replace_bytes = _add("durable.replace_bytes", lambda args, result: len(args[1]))
    _patch(rec, durable, "atomic_replace_bytes", "durable.replace", replace_bytes)
    memory.atomic_replace_bytes = durable.atomic_replace_bytes
    _patch(rec, forecaster.ForecasterService, "query", "forecaster.query")
    _patch(rec, mixture.AdaptiveForecaster, "update", "core.mixture_update")


#: Layers whose call count is reported under a name of its own.
_CALL_NAMES = {"durable.append": "durable.appends", "core.mixture_update": "core.mixture_updates"}


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics from a :meth:`Recorder.snapshot` (plus the
    launcher's ``span_cost``): ``<layer>_s`` self seconds and
    ``<layer>_calls`` for every layer, the counts, and the checks on the
    trace itself."""
    out: dict[str, float] = dict(snap["counts"])
    layers = snap["layers"]
    for name, (own, inclusive, calls) in layers.items():
        if name == ROOT:
            continue
        out[f"{name}_s"] = own
        out[_CALL_NAMES.get(name, f"{name}_calls")] = calls
    total = snap["total"]
    unattributed = layers.get(ROOT, [0.0])[0]
    out["unattributed_s"] = unattributed
    out["unattributed_share"] = unattributed / total if total else 0.0
    out["trace.overhead_share"] = (
        snap["spans"] * snap["span_cost"] / total if total else 0.0
    )
    if "server.request_s" in out:
        dispatch = layers.get("server.dispatch", [0.0, 0.0])[1]
        out["server.http_s"] = max(
            0.0, out["server.request_s"] - dispatch - out.get("wire.response_s", 0.0)
        )
    return out


# ---------------------------------------------------------------- launcher


def _write(rec: Recorder, path: str, span_cost: float, extra_counts) -> None:
    snap = rec.snapshot()
    if extra_counts is not None:
        snap["counts"].update(extra_counts())
    snap["span_cost"] = span_cost
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(snap, fh, sort_keys=True)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <repro.cli arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    import repro.cli

    rec = Recorder()
    install = {"report": install_report, "serve": install_serve}.get(cli_args[0])
    if install is None:
        print(f"spans.py: no layer map for {cli_args[0]!r}", file=sys.stderr)
        return 2
    extra_counts = install(rec)
    span_cost = calibrate()
    signal.signal(
        signal.SIGUSR1,
        lambda *_: _write(rec, out + ".phases", span_cost, extra_counts),
    )
    if cli_args[0] == "report":
        code = rec.wrap(ROOT, repro.cli.main)(cli_args)
    else:
        # The server idles between requests; its spans start at each
        # request, not at launch.
        code = repro.cli.main(cli_args)
    _write(rec, out, span_cost, extra_counts)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
