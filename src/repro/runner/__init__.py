"""Parallel experiment runner with a content-addressed result cache.

The one public entry point for monitored testbed simulations::

    from repro.runner import Runner

    runner = Runner(jobs=4, cache="artifacts/cache")
    runs = runner.run(None, config)          # full testbed, table order
    thing1 = runner.run("thing1", config)    # one host

* :class:`Runner` -- fans cache misses out over worker processes
  (results are byte-identical to serial runs: per-host seeds are derived
  inside the simulation) and persists results across interpreter
  restarts through :class:`ResultCache`; ``persist_backtests()``
  re-stores runs whose table backtests grew, so warm reports load them.
* :class:`ResultCache` -- the on-disk half: atomic writes,
  corrupt-entry detection, ``clear()``.
* :func:`config_digest` -- the stable content address:
  SHA-256 over host + sorted config fields + package version.
* :func:`default_runner` -- process-wide memory-only runner the
  table/figure generators fall back to (clear it with
  ``default_runner().clear_memory()``).
* :func:`parallel_map` -- the bare fan-out helper (used by
  :func:`repro.experiments.smp.smp_sweep` and available for any
  picklable sweep).

Cache behaviour is observable: runners tally ``repro_runner_cache_*``,
``repro_runner_simulations_total``, ``repro_runner_host_seconds`` and
``repro_runner_worker_utilization`` on the installed metrics registry,
plus plain-int :class:`RunnerStats` on ``runner.stats``.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.engine import (
    HostSimulationError,
    Runner,
    RunnerStats,
    default_runner,
    parallel_map,
)
from repro.runner.keys import CACHE_FORMAT, canonical_config, config_digest

__all__ = [
    "CACHE_FORMAT",
    "DEFAULT_CACHE_DIR",
    "HostSimulationError",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "canonical_config",
    "config_digest",
    "default_runner",
    "parallel_map",
]
