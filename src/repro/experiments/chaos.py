"""Chaos harness: replay the testbed under a fault plan, measure the damage.

For each monitored host two single-host :class:`~repro.nws.system.
NWSSystem` instances run in lockstep from the *same* per-host seed: one
fault-free baseline, one with the fault plan compiled in.  Faults only
perturb the service layer (publishes, registrations, journals) -- the
simulated workload and sensor readings underneath are identical -- so the
difference in prediction error is attributable to the faults alone.

At every scheduled step both systems are advanced and queried; the
faulted system must keep producing *an* answer (possibly stale-marked
with widened error bars) for the run to count as resilient.  Forecasts
are scored against the next ground-truth sensor reading after the step,
and the report shows per-host mean absolute error for both runs plus the
inflation caused by the faults, alongside every injected / absorbed /
failed fault event.

Reports are deterministic: same seed + plan -> byte-identical text,
regardless of ``jobs``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.nws.errors import SeriesUnavailable
from repro.nws.system import NWSSystem
from repro.workload.profiles import profile_names

__all__ = ["HostChaos", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class HostChaos:
    """Chaos outcome for one monitored host.

    ``mae_clean`` / ``mae_faulted`` are mean absolute one-step errors
    over the steps where both runs produced a forecast and ground truth
    exists (NaN when no step qualified); ``served`` counts steps the
    faulted system answered, ``degraded`` how many of those answers were
    stale-marked.
    """

    host: str
    steps: int
    served: int
    degraded: int
    mae_clean: float
    mae_faulted: float
    injected: dict[str, int]
    absorbed: dict[str, int]
    failed: dict[str, int]

    @property
    def inflation_pct(self) -> float:
        """Prediction-error inflation vs. the fault-free baseline (%)."""
        if not (self.mae_clean > 0.0) or self.mae_faulted != self.mae_faulted:
            return float("nan")
        return (self.mae_faulted - self.mae_clean) / self.mae_clean * 100.0


@dataclass(frozen=True)
class ChaosReport:
    """Whole-testbed chaos outcome; :meth:`render` is byte-stable."""

    plan_name: str
    seed: int
    duration: float
    step: float
    hosts: tuple[HostChaos, ...]

    @property
    def all_served(self) -> bool:
        """Did the faulted system answer every scheduled step on every host?"""
        return all(h.served == h.steps for h in self.hosts)

    def mean_inflation_pct(self) -> float:
        """Mean error inflation over hosts with a measurable baseline."""
        rates = [h.inflation_pct for h in self.hosts if math.isfinite(h.inflation_pct)]
        return float(np.mean(rates)) if rates else float("nan")

    def _events(self, outcome: str) -> dict[str, int]:
        merged: dict[str, int] = {}
        for host in self.hosts:
            for kind, n in getattr(host, outcome).items():
                merged[kind] = merged.get(kind, 0) + n
        return dict(sorted(merged.items()))

    def render(self) -> str:
        lines = [
            f"chaos plan {self.plan_name!r} seed={self.seed} "
            f"duration={self.duration:g}s step={self.step:g}s "
            f"hosts={len(self.hosts)}",
            f"{'host':<12} {'steps':>5} {'served':>6} {'stale':>5} "
            f"{'mae_clean':>9} {'mae_fault':>9} {'inflation':>9}",
        ]
        for h in self.hosts:
            inflation = (
                f"{h.inflation_pct:+8.1f}%"
                if math.isfinite(h.inflation_pct)
                else f"{'n/a':>9}"
            )
            lines.append(
                f"{h.host:<12} {h.steps:>5} {h.served:>6} {h.degraded:>5} "
                f"{h.mae_clean:>9.4f} {h.mae_faulted:>9.4f} {inflation}"
            )
        for outcome in ("injected", "absorbed", "failed"):
            events = self._events(outcome)
            body = (
                " ".join(f"{kind}={n}" for kind, n in events.items())
                if events
                else "(none)"
            )
            lines.append(f"events {outcome}: {body}")
        mean = self.mean_inflation_pct()
        mean_txt = f"{mean:+.1f}%" if math.isfinite(mean) else "n/a"
        lines.append(f"mean error inflation: {mean_txt}")
        lines.append(
            "forecast served every step: "
            + ("yes" if self.all_served else "NO")
        )
        return "\n".join(lines) + "\n"


def _chaos_host(
    item: tuple[int, str],
    *,
    plan: FaultPlan,
    seed: int,
    duration: float,
    step: float,
    method: str,
    measure_period: float,
) -> HostChaos:
    """Worker body: baseline + faulted run of one host (picklable)."""
    host_index, profile = item
    # Both systems get the same per-host seed; the faulted one additionally
    # compiles the plan (whose stream derives from (seed, host_index) too).
    host_seed = [int(seed), int(host_index)]
    clean = NWSSystem([profile], seed=host_seed, measure_period=measure_period)
    faulted = NWSSystem(
        [profile],
        seed=host_seed,
        measure_period=measure_period,
        fault_plan=plan,
    )
    n_steps = int(duration // step)
    clean_forecasts: list[float] = []
    fault_forecasts: list[float] = []
    served = degraded = 0
    for k in range(1, n_steps + 1):
        t = k * step
        clean.advance(t)
        faulted.advance(t)
        clean_report = _report_at(clean, profile, method)
        clean_forecasts.append(
            clean_report.forecast if clean_report is not None else float("nan")
        )
        report = _report_at(faulted, profile, method)
        fault_forecasts.append(
            report.forecast if report is not None else float("nan")
        )
        if report is not None:
            served += 1
            if report.stale:
                degraded += 1

    # Ground truth: the sensor reading each forecast was trying to predict
    # (the next reading after the query time).  The baseline's suite is
    # authoritative -- faults never touch the simulation itself.
    times, values = clean.hosts[0].suite.series(method, include_warmup=True)
    clean_err: list[float] = []
    fault_err: list[float] = []
    for k in range(1, n_steps + 1):
        idx = int(np.searchsorted(times, k * step, side="right"))
        if idx >= times.size:
            continue
        actual = float(values[idx])
        c, f = clean_forecasts[k - 1], fault_forecasts[k - 1]
        if c == c and f == f:
            clean_err.append(abs(c - actual))
            fault_err.append(abs(f - actual))
    # A plan with no clauses for this host compiles to no injector at all.
    faults = faulted.hosts[0].faults
    counts = faults.counts if faults is not None else lambda category: {}
    return HostChaos(
        host=profile,
        steps=n_steps,
        served=served,
        degraded=degraded,
        mae_clean=float(np.mean(clean_err)) if clean_err else float("nan"),
        mae_faulted=float(np.mean(fault_err)) if fault_err else float("nan"),
        injected=counts("injected"),
        absorbed=counts("absorbed"),
        failed=counts("failed"),
    )


def _report_at(system: NWSSystem, profile: str, method: str):
    """The system's current forecast report, None when it cannot answer."""
    try:
        return system.client().query(system.series_name(profile, method))
    except (SeriesUnavailable, ValueError):
        # No data yet for this series (and nothing to fall back on).
        return None


def run_chaos(
    plan: FaultPlan,
    *,
    profiles: list[str] | None = None,
    seed: int = 7,
    duration: float = 3600.0,
    step: float = 60.0,
    method: str = "nws_hybrid",
    measure_period: float = 10.0,
    jobs: int = 1,
) -> ChaosReport:
    """Replay ``profiles`` (default: the full testbed) under ``plan``.

    Per-host work fans out over ``jobs`` worker processes via
    :func:`~repro.runner.engine.parallel_map`; results are byte-identical
    for any ``jobs`` because each host's streams derive from ``(seed,
    host_index)``.
    """
    # Imported here: repro.runner imports the testbed, and so this package.
    from repro.runner.engine import parallel_map

    if duration < step:
        raise ValueError("duration must be >= step")
    names = list(profiles) if profiles is not None else profile_names()
    worker = functools.partial(
        _chaos_host,
        plan=plan,
        seed=int(seed),
        duration=float(duration),
        step=float(step),
        method=method,
        measure_period=float(measure_period),
    )
    results = parallel_map(worker, list(enumerate(names)), jobs=jobs)
    return ChaosReport(
        plan_name=plan.name,
        seed=int(seed),
        duration=float(duration),
        step=float(step),
        hosts=tuple(results),
    )
