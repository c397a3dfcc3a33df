#!/usr/bin/env python
"""Self-similarity study: reproduce the Section 3.1 analysis end-to-end.

Monitors thing1 for a simulated day, then:

1. plots the availability trace (Figure 1 style);
2. computes the first 360 autocorrelations and compares them with the
   white-noise confidence band (Figure 2);
3. runs R/S pox-plot analysis and estimates the Hurst parameter three
   independent ways (Figure 3 / Table 4);
4. validates the estimators against synthetic fractional Gaussian noise of
   known H (the calibration the paper defers to Mandelbrot & Taqqu).

Run:  python examples/self_similarity_study.py
"""

import numpy as np

from repro.analysis import (
    acf,
    acf_confidence_band,
    fgn,
    hurst_aggregated_variance,
    hurst_periodogram,
    hurst_rs,
)
from repro.report.ascii import line_plot, scatter_plot
from repro.sensors import MeasurementSuite
from repro.workload import build_host


def main() -> None:
    print("Simulating 24 hours of 'thing1' ...")
    host = build_host("thing1", seed=7)
    suite = MeasurementSuite(test_period=None).attach(host)
    host.run_until(24 * 3600.0)
    times, values = suite.series("load_average")

    print("\n== availability trace (Unix load average) ==")
    print(line_plot(times / 3600.0, 100 * values, width=70, height=10,
                    y_range=(0, 100)))

    print("\n== first 360 autocorrelations ==")
    rho = acf(values, nlags=360)
    print(line_plot(np.arange(361), rho, width=70, height=10, y_range=(0, 1)))
    band = acf_confidence_band(values.size)
    print(f"white-noise 95% band: +-{band:.3f}")
    print(f"mean ACF over lags 1..60 (10 min): {rho[1:61].mean():.3f}")
    print(f"ACF at lag 360 (1 hour):           {rho[360]:.3f}")

    print("\n== R/S pox plot ==")
    est_rs = hurst_rs(values)
    pox = est_rs.detail["pox"]
    fit_x = np.log10(pox.segment_lengths.astype(float))
    print(scatter_plot(pox.log10_d, pox.log10_rs,
                       overlay=(fit_x, pox.regression_line(fit_x))))

    print("\n== Hurst estimates (three methods) ==")
    est_av = hurst_aggregated_variance(values)
    est_pg = hurst_periodogram(values)
    for est in (est_rs, est_av, est_pg):
        flag = "self-similar" if est.is_self_similar_range else "outside (0.5,1)"
        print(f"  {est.method:22s} H = {est.value:.3f}  [{flag}]")

    print("\n== estimator calibration on synthetic fGn ==")
    for true_h in (0.5, 0.7, 0.9):
        x = fgn(1 << 15, true_h, rng=int(true_h * 100))
        print(f"  true H = {true_h:.2f}: "
              f"R/S {hurst_rs(x).value:.3f}, "
              f"agg-var {hurst_aggregated_variance(x).value:.3f}, "
              f"periodogram {hurst_periodogram(x).value:.3f}")

    print("\nConclusion (the paper's): the traces are long-range dependent")
    print("and likely self-similar -- yet, as quickstart.py shows, still")
    print("predictable in the short term.")


if __name__ == "__main__":
    main()
