"""Reproduction of the paper's Tables 1-6.

Every function returns a :class:`~repro.experiments.results.TableResult`
whose ``rows`` hold this reproduction's numbers and whose ``paper`` field
holds the values published in the paper for side-by-side comparison.

Every generator shares one uniform signature, ``tableN(runner=None,
config=None, *, seed=7, duration=DAY, engine="auto")``: simulations flow
through a :class:`repro.runner.Runner` (the process-wide default when none
is given), so Tables 1-5 share one 24-hour testbed run, Table 6 derives
its medium-term variant (5-minute test process hourly) from the same base
config via :meth:`TestbedConfig.derive`, and a parallel or disk-cached
runner accelerates every table at once.  ``engine`` selects the
:func:`~repro.core.mixture.forecast_series` backtesting engine
(``"auto"``/``"batch"``/``"stream"`` -- bit-identical outputs either way;
Tables 1 and 4 accept it for uniformity but compute no forecasts).

Tables 2, 3 and 5 score the same forecast -- the mixture's one-step-ahead
backtest of each 10 s measurement series -- against the test process
(Eq. 4), the next measurement (Eq. 5) and, parenthesized in Table 5, Eq. 5
again.  Each run's series is backtested once per method and engine and
kept on the :class:`HostRun` (read-only), so the three tables share it;
the 5-minute aggregates of Tables 5 and 6 are kept the same way.  A
disk-cached runner stores these backtests with the run, so a report over
a filled cache forecasts nothing.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import aggregate_series
from repro.analysis.hurst import hurst_rs
from repro.core.mixture import forecast_series
from repro.experiments.results import TableResult
from repro.experiments.testbed import DAY, HostRun, TestbedConfig
from repro.sensors.suite import METHODS
from repro.workload.profiles import profile_names

__all__ = ["table1", "table2", "table3", "table4", "table5", "table6", "METHOD_LABELS"]

#: Pretty column labels in the paper's order.
METHOD_LABELS = {
    "load_average": "Load Average",
    "vmstat": "vmstat",
    "nws_hybrid": "NWS Hybrid",
}

#: Aggregation level: 5 minutes of 10-second measurements.
AGG = 30

_PAPER_TABLE1 = {
    "thing2": (9.0, 11.2, 11.1),
    "thing1": (6.4, 7.5, 6.1),
    "conundrum": (34.1, 32.7, 4.4),
    "beowulf": (6.3, 6.5, 7.5),
    "gremlin": (4.0, 3.2, 4.1),
    "kongo": (12.8, 12.9, 41.3),
}

_PAPER_TABLE2 = {
    "thing2": (8.9, 8.6, 10.0),
    "thing1": (6.4, 7.0, 5.3),
    "conundrum": (34.0, 32.0, 4.3),
    "beowulf": (6.2, 6.8, 6.9),
    "gremlin": (4.0, 2.6, 3.0),
    "kongo": (12.0, 12.0, 41.0),
}

_PAPER_TABLE3 = {
    "thing2": (1.2, 4.9, 1.8),
    "thing1": (1.7, 3.1, 2.8),
    "conundrum": (0.4, 0.2, 0.2),
    "beowulf": (1.8, 3.1, 3.5),
    "gremlin": (1.0, 2.1, 2.0),
    "kongo": (0.1, 0.1, 0.1),
}

_PAPER_TABLE4 = {  # H, then (orig, 300s) variance per method
    "thing2": (0.70, 0.0348, 0.0338, 0.0431, 0.0351, 0.0321, 0.0315),
    "thing1": (0.70, 0.0081, 0.0062, 0.0103, 0.0048, 0.0147, 0.0090),
    "conundrum": (0.79, 0.0002, 0.0001, 0.0003, 0.0000, 0.0006, 0.0009),
    "beowulf": (0.82, 0.0058, 0.0039, 0.0063, 0.0019, 0.0151, 0.0057),
    "gremlin": (0.71, 0.0038, 0.0023, 0.0034, 0.0011, 0.0032, 0.0001),
    "kongo": (0.69, 0.0001, 0.0001, 0.0001, 0.0001, 0.0004, 0.0008),
}

_PAPER_TABLE5 = {  # aggregated error (unaggregated in parens)
    "thing2": ("2.4 (1.2)", "*1.7 (4.9)", "*1.3 (1.8)"),
    "thing1": ("4.9 (1.7)", "3.5 (3.1)", "3.9 (2.8)"),
    "conundrum": ("0.7 (0.4)", "0.2 (0.2)", "0.3 (0.2)"),
    "beowulf": ("3.4 (1.8)", "*2.3 (3.1)", "4.5 (3.5)"),
    "gremlin": ("2.6 (1.0)", "*1.2 (2.1)", "*1.3 (2.0)"),
    "kongo": ("0.2 (0.1)", "0.1 (0.1)", "0.2 (0.1)"),
}

_PAPER_TABLE6 = {
    "thing2": (6.6, 5.3, 6.5),
    "thing1": (5.6, 5.2, 6.7),
    "conundrum": (3.0, 7.4, 10.1),
    "beowulf": (6.0, 11.4, 11.1),
    "gremlin": (4.3, 2.9, 8.3),
    "kongo": (2.1, 1.9, 28.5),
}


def _resolve(runner, config, *, seed: int, duration: float):
    """Fill in the defaults of the uniform ``(runner, config)`` signature.

    ``config`` wins over the legacy ``seed``/``duration`` keywords; a
    missing runner resolves to the process-wide default (memoized, so
    generators sharing a config share simulations).
    """
    if runner is None:
        from repro.runner import default_runner

        runner = default_runner()
    if config is None:
        config = TestbedConfig(duration=duration, seed=seed)
    return runner, config


def _medium(config: TestbedConfig) -> TestbedConfig:
    """Table 6 setup derived from a base config: 5-minute test, hourly."""
    return config.derive(test_period=3600.0, test_duration=300.0)


def _paper_rows(table: dict, fmt=lambda v: f"{v:.1f}%") -> list[list]:
    rows = []
    for host in profile_names():
        cells = table[host]
        rows.append([host] + [fmt(c) if isinstance(c, float) else c for c in cells])
    return rows


def _backtest(run: HostRun, method: str, engine: str, agg: int = 1) -> np.ndarray:
    """The one-step-ahead NWS forecasts of ``run``'s ``method`` series,
    aggregated into blocks of ``agg`` samples first when ``agg > 1``.

    Computed on first use and kept on the run, keyed by ``(method,
    engine, agg)``; the array is read-only because every table shares it.
    """
    key = (method, engine, agg)
    forecasts = run._forecasts.get(key)
    if forecasts is None:
        values = run.values(method)
        if agg > 1:
            values = aggregate_series(values, agg)
        forecasts = forecast_series(values, engine=engine)
        forecasts.flags.writeable = False
        run._forecasts[key] = forecasts
    return forecasts


def _align(
    times: np.ndarray, forecasts: np.ndarray, observations
) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead forecasts aligned with each test observation.

    ``forecasts[k]`` is the forecast for the sample taken at ``times[k]``.
    For a test process starting at time T, the relevant forecast is the
    one generated from the last measurement at or before T, predicting
    the frame in which the test runs (paper Equation 4's subscripts).
    Observations that fall before the second measurement (no forecast
    yet) are dropped -- the matching truth array is returned alongside.
    """
    aligned, truths = [], []
    for obs in observations:
        i = int(np.searchsorted(times, obs.start_time, side="right")) - 1
        target = i + 1  # the forecast made after measurement i targets frame i+1
        if i < 0 or target >= forecasts.size or np.isnan(forecasts[target]):
            continue
        aligned.append(forecasts[target])
        truths.append(obs.observed)
    return np.asarray(aligned), np.asarray(truths)


def table1(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """Mean absolute measurement errors (24-hour period).

    For each host and method: mean |sensor reading immediately before a
    test process - availability observed by the test process|, as a
    percentage (paper Equation 3).
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    rows = []
    for run in runner.run(None, config):
        truth = run.observed()
        row = [run.host]
        for method in METHODS:
            pre = run.premeasurements(method)
            row.append(f"{100 * np.abs(pre - truth).mean():.1f}%")
        rows.append(row)
    return TableResult(
        table_id="table1",
        title="Mean Absolute Measurement Errors during a 24-hour period",
        headers=["Host"] + [METHOD_LABELS[m] for m in METHODS],
        rows=rows,
        paper=_paper_rows(_PAPER_TABLE1),
    )


def table2(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """Mean true forecasting errors, with measurement errors in parens.

    True forecasting error (paper Equation 4) is |NWS one-step-ahead
    forecast for the test frame - what the test process observed|: the
    error a scheduler would actually experience.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    rows = []
    for run in runner.run(None, config):
        truth_all = run.observed()
        row = [run.host]
        for method in METHODS:
            forecasts, truths = _align(
                run.series[method].times,
                _backtest(run, method, engine),
                run.observations,
            )
            true_err = 100 * np.abs(forecasts - truths).mean()
            pre = run.premeasurements(method)
            meas_err = 100 * np.abs(pre - truth_all).mean()
            row.append(f"{true_err:.1f}% ({meas_err:.1f}%)")
        rows.append(row)
    return TableResult(
        table_id="table2",
        title=(
            "Mean True Forecasting Errors and corresponding Measurement "
            "Errors (parenthesized)"
        ),
        headers=["Host"] + [METHOD_LABELS[m] for m in METHODS],
        rows=rows,
        paper=_paper_rows(
            {k: tuple(f"{a} ({b})" for a, b in zip(v, _PAPER_TABLE1[k]))
             for k, v in _PAPER_TABLE2.items()},
            fmt=str,
        ),
    )


def table3(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """Mean absolute one-step-ahead prediction errors.

    Paper Equation 5: |forecast for frame t - measurement at t|, i.e. the
    intrinsic predictability of each measurement series.  The paper's
    headline: less than 5 % everywhere.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    rows = []
    for run in runner.run(None, config):
        row = [run.host]
        for method in METHODS:
            values = run.values(method)
            f = _backtest(run, method, engine)
            row.append(f"{100 * np.abs(f[1:] - values[1:]).mean():.1f}%")
        rows.append(row)
    return TableResult(
        table_id="table3",
        title="Mean Absolute One-step-ahead Prediction Errors (24-hour period)",
        headers=["Host"] + [METHOD_LABELS[m] for m in METHODS],
        rows=rows,
        paper=_paper_rows(_PAPER_TABLE3),
    )


def table4(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """Hurst estimate and variance of original vs 5-minute-averaged series.

    The Hurst column uses R/S pox-plot regression on the load-average
    series (the paper's Figure 3 technique).  For each method, the sample
    variance of the raw 10 s series and of its 5-minute (m = 30)
    non-overlapping means: self-similarity predicts the aggregated variance
    decays like ``m**(2H-2)``, much slower than ``1/m``.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    rows = []
    for run in runner.run(None, config):
        la = run.values("load_average")
        hurst = hurst_rs(la).value if la.std() > 0 else float("nan")
        row = [run.host, f"{hurst:.2f}"]
        for method in METHODS:
            values = run.values(method)
            agg = aggregate_series(values, AGG)
            row.append(f"{values.var():.4f}")
            row.append(f"{agg.var():.4f}")
        rows.append(row)
    headers = ["Host", "Est. H"]
    for m in METHODS:
        headers += [f"{METHOD_LABELS[m]} orig.", f"{METHOD_LABELS[m]} 300s"]
    return TableResult(
        table_id="table4",
        title="Variance of Original Series and 5-Minute Averages",
        headers=headers,
        rows=rows,
        paper=_paper_rows(
            {k: (f"{v[0]:.2f}",) + tuple(f"{x:.4f}" for x in v[1:])
             for k, v in _PAPER_TABLE4.items()},
            fmt=str,
        ),
    )


def table5(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """One-step-ahead prediction errors for 5-minute aggregated series.

    The aggregated series' one-step-ahead (i.e. 5-minutes-ahead) NWS
    prediction error, with the raw 10 s error parenthesized; a ``*`` marks
    cells where the aggregated prediction is *more* accurate, the paper's
    curiosity about smoothing at certain time scales.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    rows = []
    for run in runner.run(None, config):
        row = [run.host]
        for method in METHODS:
            values = run.values(method)
            f = _backtest(run, method, engine)
            err_orig = 100 * np.abs(f[1:] - values[1:]).mean()
            agg = aggregate_series(values, AGG)
            fa = _backtest(run, method, engine, AGG)
            err_agg = 100 * np.abs(fa[1:] - agg[1:]).mean()
            star = "*" if err_agg < err_orig else ""
            row.append(f"{star}{err_agg:.1f}% ({err_orig:.1f}%)")
        rows.append(row)
    return TableResult(
        table_id="table5",
        title=(
            "Mean Absolute One-step-ahead Prediction Errors for 5-Minute "
            "Aggregated Series (unaggregated parenthesized; * = aggregated "
            "more accurate)"
        ),
        headers=["Host"] + [METHOD_LABELS[m] for m in METHODS],
        rows=rows,
        paper=_paper_rows(_PAPER_TABLE5, fmt=str),
    )


def table6(
    runner=None,
    config: TestbedConfig | None = None,
    *,
    seed: int = 7,
    duration: float = DAY,
    engine: str = "auto",
) -> TableResult:
    """Mean true forecasting errors for 5-minute average CPU availability.

    The paper's medium-term experiment: the availability series is averaged
    over 5-minute blocks; a one-block-ahead NWS forecast is compared
    against a 5-minute test process launched once per hour (sparse, to
    avoid driving contention away).  The given ``config`` is treated as
    the *base* setup; the medium-term variant is derived from it.
    """
    runner, config = _resolve(runner, config, seed=seed, duration=duration)
    config = _medium(config)
    rows = []
    for run in runner.run(None, config):
        row = [run.host]
        for method in METHODS:
            series = run.series[method]
            blocks = series.values.size // AGG
            agg_times = series.times[: blocks * AGG].reshape(blocks, AGG)[:, -1]
            forecasts, truths = _align(
                agg_times, _backtest(run, method, engine, AGG), run.observations
            )
            row.append(f"{100 * np.abs(forecasts - truths).mean():.1f}%")
        rows.append(row)
    return TableResult(
        table_id="table6",
        title="Mean True Forecasting Errors for 5-Minute Average CPU Availability",
        headers=["Host"] + [METHOD_LABELS[m] for m in METHODS],
        rows=rows,
        paper=_paper_rows(_PAPER_TABLE6),
    )
