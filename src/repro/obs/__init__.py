"""``repro.obs``: deterministic observability for the sim + NWS stack.

The paper's argument is entirely quantitative, and so is this layer: a
running system can be asked how many measurements each sensor produced
and which member of the adaptive forecaster battery is currently winning.  All timestamps come from injected (simulated)
clocks, so metrics snapshots and traces of a seeded run are
bit-reproducible; wall-clock timing exists only in the ``repro.live``
adapter.

Pieces
------
* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.MetricsRegistry`
  (counters / gauges / fixed-bucket histograms, labels,
  ``snapshot() -> dict``) plus the no-op ``NullRegistry`` installed by
  default so disabled instrumentation costs ~nothing.
* :mod:`repro.obs.tracing` -- ``with tracer.span("nws.advance", ...)``
  spans stamped from an injected clock; ``record()`` for event-driven
  intervals.
* :mod:`repro.obs.exporters` -- Prometheus text format and JSON-lines
  event logs (byte-identical across same-seed runs), plus
  :func:`~repro.obs.exporters.deterministic_view` which drops the few
  wall-clock metric families (:data:`~repro.obs.metrics.WALL_METRICS`)
  so two runs of one seed can be compared byte-for-byte.
* :mod:`repro.obs.dashboard` -- ASCII dashboard over a snapshot.
* :mod:`repro.obs.instrument` -- collect-style kernel gauges.

Telemetry stays in the process that records it: code records into the
registry and tracer installed in its own process.  A serial
:class:`~repro.runner.Runner` simulation records into the caller's
sinks; a pool worker's telemetry stays in the worker.

Usage: install a registry (and optionally a tracer) *before* constructing
the system -- handles bind at construction time::

    from repro.obs import MetricsRegistry, installed

    with installed(MetricsRegistry()) as registry:
        system = NWSSystem(["thing1", "conundrum"], seed=7)
        system.advance(3600.0)
        system.client().query_all()
    print(render_prometheus(registry))

Metrics inventory
-----------------
Naming scheme: ``repro_<layer>_<name>`` (``_total`` suffix on counters).

Simulator (``repro.sim``, exported via
:func:`~repro.obs.instrument.observe_kernel`; labels: ``host``):

* ``repro_sim_time_seconds`` (gauge) -- simulated clock.
* ``repro_sim_load_average`` (gauge) -- one-minute load average.
* ``repro_sim_run_queue_length`` (gauge) -- currently runnable processes.
* ``repro_sim_event_queue_depth`` (gauge) -- pending timed events.
* ``repro_sim_events_scheduled_total`` / ``repro_sim_events_fired_total``
  (counters) -- event-queue traffic.
* ``repro_sim_dispatches_total`` (counter) -- contended quantum dispatches.
* ``repro_sim_ticks_total`` (counter) -- accounting ticks.
* ``repro_sim_processes_spawned_total`` /
  ``repro_sim_processes_completed_total`` (counters).
* ``repro_sim_cpu_seconds_total`` (counter; labels ``host``, ``mode`` in
  ``user|sys|idle``) -- cumulative CPU accounting.

Sensors (``repro.sensors``; labels: ``host``, ``method``):

* ``repro_sensor_readings_total`` (counter) -- availability readings per
  method.
* ``repro_sensor_probes_total`` (counter) -- probes launched.
* ``repro_sensor_probe_availability`` (histogram, buckets 0.1..1.0) --
  what probes experienced.
* ``repro_sensor_arbitrations_total`` (counter; label ``method``) -- which
  cheap method each hybrid arbitration chose.
* ``repro_sensor_tests_total`` (counter) -- ground-truth test processes.

Forecasters (``repro.core`` / ``repro.nws.forecaster``):

* ``repro_forecaster_updates_total`` (counter) -- measurements absorbed by
  adaptive mixtures.
* ``repro_forecaster_switches_total`` (counter) -- winner changes across
  all batteries.
* ``repro_forecaster_wins`` / ``repro_forecaster_cumulative_mae`` /
  ``repro_forecaster_recent_mae`` (gauges; labels ``series``, ``member``)
  -- per-member standings of every served series (the paper's "recently
  most accurate method", inspectable).
* ``repro_forecaster_switches`` (gauge; label ``series``) -- winner
  changes per served series, every one counted (the mixture keeps only
  the most recent as events).
* ``repro_forecaster_queries_total`` (counter) -- forecast queries served.
* ``repro_forecaster_degraded_total`` (counter) -- queries answered from
  the last-known-good report (series unavailable) with widened error bars.

Forecast backtesting engine (``repro.core.mixture.forecast_series`` /
``repro.core.batch``):

* ``repro_forecast_engine_total`` (counter; label ``engine`` in
  ``batch|stream``) -- which engine served each whole-series backtest:
  ``batch`` for the default mixture, ``stream`` for a forecaster
  instance.
* ``repro_forecast_seconds`` (histogram; label ``engine``) -- wall time
  per ``forecast_series`` call, per engine (the only wall-clock metric in
  ``repro.core``; it never feeds results, so determinism holds).
* ``repro_forecast_gap_steps_total`` (counter) -- NaN gap entries skipped
  (hold-last/skip-update) across all ``forecast_series`` calls.

Memory (``repro.nws.memory``):

* ``repro_memory_publishes_total`` (counter; label ``series``).
* ``repro_memory_evictions_total`` (counter) -- samples dropped at the
  capacity bound.
* ``repro_memory_fetches_total`` (counter) -- reads served: window
  fetches and forecaster tail reads.
* ``repro_memory_recoveries_total`` / ``repro_memory_recovered_samples_total``
  (counters) -- tenant-log replays.
* ``repro_memory_corrupt_journal_lines_total`` (counter) -- torn or
  unparsable tenant-log lines, and records with a non-finite or
  decreasing time, skipped during recovery.
* ``repro_memory_journal_checkpoints_total`` (counter) -- tenant logs
  atomically rewritten to the live state (log compaction), bounding
  on-disk log growth.
* ``repro_memory_series`` (gauge) -- live series count.

Name server (``repro.nws.nameserver``):

* ``repro_nameserver_registrations_total`` / ``repro_nameserver_lookups_total``
  / ``repro_nameserver_expirations_total`` (counters).
* ``repro_nameserver_registrations_live`` (gauge).

Sensor hosts (``repro.nws.sensorhost``; label ``host``):

* ``repro_nws_publish_rounds_total`` (counter) -- measurement rounds
  published into the memory.
* ``repro_nws_ttl_lapses_total`` (counter) -- registrations found expired
  at pump time and re-registered (crash recovery / missed refreshes).

Forecast service (``repro.nws.service`` / ``repro.nws.server``; see
``nws-repro serve``):

* ``repro_server_requests_total`` (counter; label ``op``) -- service
  operations executed by the shared core, in process and over HTTP.
* ``repro_server_errors_total`` (counter; label ``code``) -- failed
  operations by wire error code (``bad_request``, ``unknown_tenant``,
  ``series_unavailable``, ``registration_lapsed``, ...).
* ``repro_server_tenants`` (gauge) -- tenants served by the core.
* ``repro_server_compactions_total`` /
  ``repro_server_compacted_samples_total`` (counters) -- retention
  passes: series compacted and raw samples folded onto the coarse grid.
* ``repro_server_request_seconds`` (histogram; label ``status``) -- HTTP
  handler wall latency (wall-clock; excluded from the deterministic
  view).
* ``repro_server_responses_total`` (counter; label ``status``) -- HTTP
  responses by status code.
* ``repro_server_maintenance_cycles_total`` (counter) -- background
  retention/liveness cycles completed.
* ``repro_server_shed_total`` (counter; label ``reason`` in
  ``overload|draining|deadline|descriptors``) -- requests refused by
  admission control, or publishes that found no file descriptor to
  log their sample (HTTP 429 + ``Retry-After``).
* ``repro_server_unclean_shutdown_total`` (counter) -- worker threads
  still alive after the shutdown join timeout (also surfaced in
  ``health()``).
* ``repro_server_restores_total`` (counter) -- successful
  :meth:`~repro.nws.service.ServiceCore.restore` calls.
* ``repro_server_restored_series_total`` /
  ``repro_server_restored_samples_total`` /
  ``repro_server_restored_registrations_total`` (counters) -- state
  recovered from the tenant logs by those restores.

Fault injection & resilience (``repro.faults``; see
``nws-repro chaos``):

* ``repro_faults_injected_total`` / ``repro_faults_absorbed_total`` /
  ``repro_faults_failed_total`` (counters; labels ``host``, ``kind``) --
  fault events by outcome: injected perturbations, faults the resilience
  machinery absorbed (journal recoveries, TTL re-registrations, rejected
  publishes), and faults that caused visible data loss.
* ``repro_faults_retries_total`` (counter) -- retries performed by any
  :class:`~repro.faults.RetryPolicy`.
* ``repro_faults_retry_exhausted_total`` (counter) -- calls that failed
  even after the full retry budget.
* ``repro_client_breaker_transitions_total`` (counter; label
  ``transition`` in ``closed->open|open->half_open|half_open->closed|
  half_open->open``) -- circuit-breaker state changes in
  :class:`~repro.faults.CircuitBreaker`.
* ``repro_client_breaker_fastfails_total`` (counter) -- calls refused
  without touching the transport because the breaker was open (or the
  half-open probe budget was taken).
* ``repro_runner_retries_total`` (counter) -- per-host simulation retries
  in :class:`~repro.runner.Runner` (worker crashes, broken pools).

Runner (``repro.runner``):

* ``repro_runner_cache_hits_total`` / ``repro_runner_cache_misses_total``
  (counters; label ``tier`` in ``memory|disk``) -- cache outcomes per
  tier.
* ``repro_runner_cache_corrupt_total`` (counter) -- on-disk entries that
  failed verification and were discarded.
* ``repro_runner_simulations_total`` (counter; label ``mode`` in
  ``serial|parallel``) -- simulations actually executed.
* ``repro_runner_jobs`` (gauge) -- worker processes in the last run.
* ``repro_runner_worker_utilization`` (gauge) -- busy fraction of the
  pool (wall-clock; excluded from the deterministic view).
* ``repro_runner_host_seconds`` (histogram; label ``host``) -- wall time
  simulating each host, observed by the runner that asked for it
  (wall-clock; excluded from the deterministic view).

Scheduling application (``repro.schedapp``):

* ``repro_sched_assignments_total`` / ``repro_sched_tasks_assigned_total``
  (counters; label ``mapper``).
* ``repro_sched_tasks_completed_total`` (counter) -- grid task completions.
* ``repro_sched_chunks_pulled_total`` (counter) -- work-queue pulls.
* ``repro_sched_makespan_seconds`` (gauge) -- last executed plan.

Spans: ``kernel.run``, ``nws.advance``, ``nws.query``, ``sensor.probe``,
``sched.execute``, and the service operations ``server.publish``,
``server.fetch``, ``server.query``, ``server.query_all``,
``server.register``, ``server.refresh``, ``server.lookup``,
``server.recover``, ``server.maintain`` (sim-clock timestamps; see
:mod:`repro.obs.tracing`).
"""

from repro.obs.exporters import (
    deterministic_view,
    jsonl_events,
    render_jsonl,
    render_prometheus,
)
from repro.obs.instrument import observe_kernel
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    WALL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    install,
    installed,
    uninstall,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    install_tracer,
    traced,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "WALL_METRICS",
    "deterministic_view",
    "get_registry",
    "get_tracer",
    "install",
    "install_tracer",
    "installed",
    "jsonl_events",
    "observe_kernel",
    "render_jsonl",
    "render_prometheus",
    "traced",
    "uninstall",
    "uninstall_tracer",
]
