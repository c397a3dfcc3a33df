"""Reproduction of the paper's Figures 1-4.

Each function returns a :class:`~repro.experiments.results.FigureResult`
with the figure's exact data (panels of named arrays); ``render()`` draws
an ASCII version and :func:`repro.report.export.export_figure_csv` writes
the data for external plotting.

Like the tables, every generator takes the uniform ``(runner, config)``
signature: simulations flow through a :class:`repro.runner.Runner` (the
process-wide default when none is given), so figures sharing a config
share simulations with the tables, and a parallel or disk-cached runner
accelerates everything at once.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.acf import acf
from repro.analysis.aggregate import aggregate_series
from repro.analysis.rs import pox_plot_data
from repro.experiments.results import FigureResult
from repro.experiments.tables import _resolve
from repro.experiments.testbed import DAY, TestbedConfig

__all__ = ["figure1", "figure2", "figure3", "figure4"]

#: Hosts shown in every figure of the paper.
FIGURE_HOSTS = ("thing1", "thing2")

WEEK = 7 * DAY


def figure1(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
) -> FigureResult:
    """CPU availability measurements (Unix load average), thing1 & thing2.

    The raw 10-second availability series over 24 hours -- the traces whose
    slow wandering motivates the whole study.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    panels = {}
    for run in runner.run(FIGURE_HOSTS, config):
        series = run.series["load_average"]
        panels[run.host] = {
            "time_hours": series.times / 3600.0,
            "availability_percent": 100.0 * series.values,
        }
    return FigureResult(
        figure_id="figure1",
        title=(
            "CPU Availability Measurements (using Unix Load Average) for "
            "thing1 and thing2"
        ),
        panels=panels,
    )


def figure2(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    nlags: int = 360,
) -> FigureResult:
    """First 360 autocorrelations of each availability series.

    The slow decay (events hours apart still correlated) is the evidence
    for long-range dependence.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    panels = {}
    notes = {}
    for run in runner.run(FIGURE_HOSTS, config):
        values = run.values("load_average")
        rho = acf(values, nlags=nlags)
        panels[run.host] = {
            "lag": np.arange(nlags + 1, dtype=np.float64),
            "autocorrelation": rho,
        }
        notes[f"{run.host}_acf_at_{nlags}"] = float(rho[-1])
    return FigureResult(
        figure_id="figure2",
        title=(
            "CPU Availability Autocorrelations (Unix Load Average) for "
            "thing1 and thing2"
        ),
        panels=panels,
        notes=notes,
    )


def figure3(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = WEEK,
) -> FigureResult:
    """Pox plots of R/S statistics over a one-week trace, thing1 & thing2.

    Scatter of log10(R/S(d)) against log10(d) for non-overlapping segments
    of dyadic lengths; the regression through per-length means estimates
    the Hurst parameter (the paper finds 0.70 for both hosts).
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    panels = {}
    notes = {}
    for run in runner.run(FIGURE_HOSTS, config):
        values = run.values("load_average")
        pox = pox_plot_data(values, max_segments_per_length=256)
        line_x = np.log10(pox.segment_lengths.astype(np.float64))
        panels[run.host] = {
            "log10_d": pox.log10_d,
            "log10_rs": pox.log10_rs,
            "fit_x": line_x,
            "fit_y": pox.regression_line(line_x),
        }
        notes[f"{run.host}_hurst"] = round(pox.hurst, 3)
    return FigureResult(
        figure_id="figure3",
        title="Pox Plot of CPU Availability (Unix Load Average), one week",
        panels=panels,
        notes=notes,
    )


def figure4(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    m: int = 30,
) -> FigureResult:
    """5-minute aggregated availability, thing1 & thing2 (Table 6 run).

    Uses the medium-term run (5-minute test process hourly) derived from
    the given base config, so the periodic signature of the intrusive test
    process is visible, exactly as the paper remarks.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    config = config.derive(test_period=3600.0, test_duration=300.0)
    panels = {}
    for run in runner.run(FIGURE_HOSTS, config):
        series = run.series["load_average"]
        agg = aggregate_series(series.values, m)
        blocks = agg.size
        times = series.times[: blocks * m].reshape(blocks, m)[:, -1]
        panels[run.host] = {
            "time_hours": times / 3600.0,
            "availability_percent": 100.0 * agg,
        }
    return FigureResult(
        figure_id="figure4",
        title=(
            "5-Minute Aggregated CPU Availability (Unix Load Average) for "
            "thing1 and thing2"
        ),
        panels=panels,
    )
