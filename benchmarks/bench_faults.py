"""Benchmark guard: the fault-injection layer is free when unused.

The fault hooks live on the sensor-host publish path, which runs once per
measurement round on every monitored host.  The contract: constructing an
:class:`~repro.nws.system.NWSSystem` *without* a fault plan follows the
exact pre-faults fast path, and attaching a plan with no clauses for a
host compiles to no injector at all (``NWSSystem`` skips hosts the plan
never touches) -- chaos tooling must not tax fault-free paper runs.

Both halves are checked deterministically rather than timed: a host the
plan does not touch carries no injector (``SensorHost.faults is None``),
so its publish path is the no-plan path by construction, and its series
after three simulated hours are byte-identical to a no-plan run's.  A
wall-clock ratio of two legs running the same code only measures the
machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.faults import FaultPlan
from repro.nws import NWSSystem

#: Simulated span of the byte-identity check.
SIM_SECONDS = 10800.0

#: Plans that leave thing1 untouched: no clauses, or clauses for kongo only.
UNTOUCHING_PLANS = {
    "empty": FaultPlan(name="empty"),
    "kongo-only": FaultPlan(name="kongo-only")
    .sensor_dropout(0.5, host="kongo")
    .crash(start=600.0, duration=600.0, host="kongo"),
}


def _series(system: NWSSystem) -> dict[str, tuple[bytes, bytes]]:
    return {
        name: tuple(np.asarray(a).tobytes() for a in system.memory.fetch(name))
        for name in system.memory.series_names()
    }


@pytest.mark.parametrize("plan", sorted(UNTOUCHING_PLANS))
def test_untouched_host_gets_no_injector(plan):
    system = NWSSystem(["thing1", "kongo"], seed=5, fault_plan=UNTOUCHING_PLANS[plan])
    thing1, kongo = system.hosts
    assert thing1.faults is None, f"{plan} plan compiled an injector for thing1"
    assert (kongo.faults is None) == (plan == "empty")


def test_empty_plan_series_match_no_plan(benchmark):
    def run(fault_plan):
        system = NWSSystem(["thing1"], seed=5, fault_plan=fault_plan)
        system.advance(SIM_SECONDS)
        return _series(system)

    baseline = run(None)
    empty = run_once(benchmark, run, UNTOUCHING_PLANS["empty"])
    assert empty and empty == baseline
