"""Reproduction of *Predicting the CPU Availability of Time-shared Unix
Systems on the Computational Grid* (Wolski, Spring & Hayes, HPDC 1999).

The package rebuilds the paper's entire experimental apparatus in Python:

* :mod:`repro.sim` -- a time-shared Unix host simulator (decay-usage
  scheduler, load average, vmstat counters) standing in for the UCSD
  testbed machines;
* :mod:`repro.workload` -- heavy-tailed, self-similar background load and
  the six named host profiles (thing1, thing2, conundrum, beowulf,
  gremlin, kongo);
* :mod:`repro.sensors` -- the NWS CPU sensors (load average, vmstat,
  probe-arbitrated hybrid) and the ground-truth test process;
* :mod:`repro.core` -- the NWS forecasting subsystem (forecaster battery +
  adaptive mixture + error metrics + high-level predictor);
* :mod:`repro.analysis` -- ACF, R/S pox plots, Hurst estimation,
  aggregation variance, exact fGn synthesis;
* :mod:`repro.experiments` -- drivers regenerating every table (1-6) and
  figure (1-4) of the paper;
* :mod:`repro.schedapp` -- forecast-driven grid scheduling (the paper's
  motivating application);
* :mod:`repro.live` -- the same sensor formulas against the real local
  /proc, plus a real spinning probe;
* :mod:`repro.trace` / :mod:`repro.report` -- persistence and rendering.

Quickstart::

    from repro.experiments import table1
    print(table1().render(with_paper=True))
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AdaptiveForecaster",
    "NWSPredictor",
    "__version__",
    "forecast_series",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.mixture": ("AdaptiveForecaster", "forecast_series"),
        "repro.core.predictor": ("NWSPredictor",),
    },
)
