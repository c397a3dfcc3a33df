"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.experiments.testbed` -- the reproducible six-host testbed:
  :class:`TestbedConfig` (keyword-only, with ``derive()`` for variants),
  :class:`HostRun`, and the pure simulation engine
  :func:`~repro.experiments.testbed.simulate_host`.
* :mod:`repro.experiments.tables` -- ``table1()`` .. ``table6()``.
* :mod:`repro.experiments.figures` -- ``figure1()`` .. ``figure4()``.
* :mod:`repro.experiments.results` -- result containers with formatting.
* :mod:`repro.experiments.smp` -- the SMP extension study and sweep.
* :mod:`repro.experiments.chaos` -- fault-plan replays of the testbed
  against a fault-free baseline (``nws-repro chaos``).  It runs the
  forecast service, so it is imported on first use of ``ChaosReport``,
  ``HostChaos`` or ``run_chaos``: the report never loads ``repro.nws``.

Execution goes through :class:`repro.runner.Runner` (parallel workers +
content-addressed on-disk cache); table/figure generators all share the
uniform ``(runner, config)`` signature and fall back to the process-wide
default runner.

Every entry point takes ``seed`` and duration parameters and is
deterministic given them.
"""

from repro.experiments.results import FigureResult, TableResult
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.experiments.figures import figure1, figure2, figure3, figure4
from repro.experiments.smp import SmpResult, smp_study, smp_sweep
from repro.experiments.testbed import (
    HostRun,
    TestbedConfig,
    simulate_host,
)

__all__ = [
    "ChaosReport",
    "FigureResult",
    "HostChaos",
    "HostRun",
    "SmpResult",
    "TableResult",
    "TestbedConfig",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "run_chaos",
    "simulate_host",
    "smp_study",
    "smp_sweep",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]

_CHAOS = ("ChaosReport", "HostChaos", "run_chaos")


def __getattr__(name: str):
    if name in _CHAOS:
        from repro.experiments import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
