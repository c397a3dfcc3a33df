"""Ablation: the NWS adaptive mixture vs its individual members.

Wolski '98 (and Section 3 of this paper) claims the dynamic
choose-the-recent-winner strategy is as accurate as -- or slightly better
than -- the best *fixed* forecaster, without knowing in advance which that
is.  This bench scores every battery member and the mixture on the
thing1 and kongo load-average traces and checks the claim.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.batch import member_forecasts
from repro.core.errors import one_step_prediction_errors
from repro.core.forecasters import default_battery
from repro.core.mixture import forecast_series
from repro.experiments.testbed import TestbedConfig
from repro.runner import default_runner

HOURS6 = 6 * 3600.0


def _scores(host: str, seed: int) -> dict[str, float]:
    run = default_runner().run_one(host, TestbedConfig(duration=HOURS6, seed=seed))
    values = run.values("load_average")
    scores = {}
    # The vectorized batch engine serves every score (bit-identical to
    # streaming; see repro.core.batch).
    for member in default_battery():
        f = member_forecasts(member, values)
        scores[member.name] = one_step_prediction_errors(f[1:], values[1:]).mae
    f = forecast_series(values)
    scores["nws_adaptive"] = one_step_prediction_errors(f[1:], values[1:]).mae
    return scores


def test_mixture_ablation(benchmark, seed):
    def run():
        return {host: _scores(host, seed) for host in ("thing1", "kongo")}

    all_scores = run_once(benchmark, run)
    print()
    for host, scores in all_scores.items():
        ranked = sorted(scores.items(), key=lambda kv: kv[1])
        print(f"-- {host}: top 5 of {len(scores)} --")
        for name, mae in ranked[:5]:
            marker = " <== mixture" if name == "nws_adaptive" else ""
            print(f"  {name:22s} {100 * mae:6.2f}%{marker}")
        mixture = scores.pop("nws_adaptive")
        best_member = min(scores.values())
        worst_member = max(scores.values())
        # The mixture tracks the best member closely ...
        assert mixture <= best_member * 1.3 + 1e-4, (host, mixture, best_member)
        # ... and beats the worst member by a wide margin.
        assert mixture < worst_member, host
