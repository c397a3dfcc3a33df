"""Generated differential tests: ``Kernel.run_until`` against the reference.

Hypothesis builds a host from a plan -- processes with random nice
levels, demands and system fractions, a measurement suite with short
periods, and callbacks that spawn, sleep and kill processes mid-run (some
from ``on_done`` hooks) or change a runnable process's ``nice``,
``sys_fraction`` or ``cpu_demand`` -- then advances one copy with the
plain event loop (``tests/sim_reference.py``) and one with the kernel's
fused loop through the same deadlines.  The deadlines either land on
ticks, on callback instants and a fraction of the event epsilon either
side of them, or are one call to the horizon, or are many small steps
(the NWS sensor-host pump and co-simulation pattern).  After every
deadline the kernel, every live process and the suite must be byte-equal
(the same ``kernel_state`` / ``suite_state`` views the parity matrix
uses).

A second property adds mid-run changes the cruises must notice: a tick
listener, a round listener and a scheduler swap, each installed by a
callback.  What the listeners see must match too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.suite import MeasurementSuite
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process, ProcessState
from repro.sim.scheduler import (
    DecayUsageScheduler,
    FairShareScheduler,
    RoundRobinScheduler,
)
from tests.sim_reference import reference_run_until
from tests.test_sim_batch import kernel_state, suite_state

SCHEDULERS = (DecayUsageScheduler, RoundRobinScheduler, FairShareScheduler)
INF = float("inf")
HORIZON = 160.0

# Few distinct nice levels and a bias towards one CPU under decay-usage,
# so equal priorities (ties broken by last dispatch) come up often.
process_spec = st.tuples(
    st.sampled_from(["alice", "bob", "nws", "job"]),
    st.sampled_from([0, 0, 1, 10, 19]),
    st.one_of(st.just(INF), st.floats(min_value=0.05, max_value=40.0)),
    st.sampled_from([0.0, 0.1, 0.35, 1.0]),
)

# (time, kind, process spec, selector, duration)
action = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON),
    st.sampled_from(
        ["spawn", "spawn_chain", "sleep", "kill", "renice", "resys", "redemand"]
    ),
    process_spec,
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.01, max_value=25.0),
)

suite_spec = st.tuples(
    st.sampled_from([1.0, 2.5, 5.0, 10.0]),  # measure period
    st.integers(min_value=1, max_value=6),  # probe period, in measure periods
    st.sampled_from([None, (30.0, 3.0), (45.0, 10.0)]),  # test period/duration
)

offset = st.sampled_from([0.0, -5e-10, 5e-10, -2e-9, 0.37])

plan = st.fixed_dictionaries(
    {
        "scheduler": st.sampled_from([0, 0, 1, 2]),
        "ncpu": st.sampled_from([1, 1, 2, 3, 4]),
        "quantum": st.sampled_from([0.1, 0.25, 1.0]),
        "initial": st.lists(process_spec, max_size=4),
        "actions": st.lists(action, max_size=14),
        "suite": st.one_of(st.none(), suite_spec),
        "checkpoints": st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), offset),
            min_size=1,
            max_size=4,
        ),
        # None: the checkpoints above; 0.0: one call to the horizon; else
        # a step length for many small calls.
        "step": st.sampled_from([None, None, 0.0, 0.1, 0.37, 1.0, 3.3]),
    }
)


def make_process(spec, on_done=None) -> Process:
    user, nice, demand, sys_fraction = spec
    return Process(
        f"{user}:{nice}",
        cpu_demand=demand,
        nice=nice,
        sys_fraction=sys_fraction,
        on_done=on_done,
    )


def build(p: dict, extras=()):
    """One kernel (+ suite) from a plan; ``extras`` are (time, install)."""
    kernel = Kernel(
        KernelConfig(ncpu=p["ncpu"], quantum=p["quantum"]),
        SCHEDULERS[p["scheduler"]](),
    )
    for spec in p["initial"]:
        kernel.spawn(make_process(spec))

    def act(kind, spec, selector, duration):
        if kind == "spawn":
            kernel.spawn(make_process(spec))
        elif kind == "spawn_chain":
            # Completion hook: think, then spawn a follow-up -- the
            # console-user shape, scheduled from inside a span.
            def follow(_done):
                kernel.after(duration, lambda: kernel.spawn(make_process(spec)))

            kernel.spawn(make_process(spec, on_done=follow))
        elif kind == "sleep":
            runnable = [
                q for q in kernel.processes if q.state is ProcessState.RUNNABLE
            ]
            if runnable:
                kernel.sleep(runnable[selector % len(runnable)], duration)
        elif kind == "kill":
            live = kernel.processes
            if live:
                kernel.kill(live[selector % len(live)])
        else:
            # Change a runnable process in place, typically a runner in
            # the middle of a cruise.
            runnable = [
                q for q in kernel.processes if q.state is ProcessState.RUNNABLE
            ]
            if not runnable:
                return
            target = runnable[selector % len(runnable)]
            if kind == "renice":
                target.nice = spec[1]
            elif kind == "resys":
                target.sys_fraction = spec[3]
            else:
                # Never below what it has used: still live after the change.
                target.cpu_demand = target.cpu_time + (
                    INF if selector % 3 == 0 else duration
                )

    for at, kind, spec, selector, duration in p["actions"]:
        kernel.at(at, lambda a=(kind, spec, selector, duration): act(*a))

    suite = None
    if p["suite"] is not None:
        measure, probe_every, test = p["suite"]
        test_period, test_duration = test if test is not None else (None, 10.0)
        suite = MeasurementSuite(
            measure_period=measure,
            probe_period=measure * probe_every,
            test_period=test_period,
            test_duration=test_duration,
            warmup=0.0,
        ).attach_kernel(kernel)
    seen = []
    for at, install in extras:
        kernel.at(at, lambda f=install: f(kernel, suite, seen))
    return kernel, suite, seen


def checkpoints(p: dict) -> list[float]:
    """The run's deadlines, increasing and ending at the horizon."""
    if p["step"] == 0.0:
        return [HORIZON]
    if p["step"] is not None:
        n = int(HORIZON / p["step"])
        return [k * p["step"] for k in range(1, n + 1)] + [HORIZON]
    # On and around ticks and callback instants.
    anchors = [float(int(a[0])) for a in p["actions"]] + [
        a[0] for a in p["actions"]
    ]
    anchors += [40.0, 80.0, HORIZON]
    out = []
    for index, delta in p["checkpoints"]:
        base = anchors[index % len(anchors)]
        out.append(min(HORIZON, max(0.0, base + delta)))
    return sorted(set(out)) + [HORIZON]


def assert_same_run(p: dict, extras=()):
    k_ref, s_ref, seen_ref = build(p, extras)
    k_fused, s_fused, seen_fused = build(p, extras)
    for t_end in checkpoints(p):
        reference_run_until(k_ref, t_end)
        k_fused.run_until(t_end)
        assert kernel_state(k_ref) == kernel_state(k_fused), t_end
        assert k_ref.n_spawned == k_fused.n_spawned
        assert k_ref.n_completed == k_fused.n_completed
        if s_ref is not None:
            assert suite_state(s_ref) == suite_state(s_fused), t_end
        assert seen_ref == seen_fused, t_end


@given(p=plan)
@settings(max_examples=60, deadline=None)
def test_generated_mixes_match_event_engine(p):
    """Random mixes, mid-cruise changes and stepping patterns: byte-equal."""
    assert_same_run(p)


@pytest.mark.parametrize("kind", ["renice", "resys", "redemand"])
@pytest.mark.parametrize("runners", [1, 2])
def test_runner_changed_mid_cruise(kind, runners):
    """A callback changes a runner while the kernel cruises; no stale values.

    One or two CPU-bound processes on one CPU under decay-usage, a suite
    with 2.5 s rounds (so a cruise takes many callbacks), and at t = 35.3,
    between two probes, a callback changes a runner in place.  Both loops
    must agree byte for byte at every checkpoint.
    """
    initial = [("alice", 0, INF, 0.0), ("bob", 0, INF, 0.35)][:runners]
    p = {
        "scheduler": 0,
        "ncpu": 1,
        "quantum": 0.1,
        "initial": initial,
        "actions": [(35.3, kind, ("alice", 10, INF, 1.0), 1, 2.0)],
        "suite": (2.5, 4, None),
        "checkpoints": [],
        "step": 20.0,
    }
    assert_same_run(p)


def add_tick_listener(kernel, suite, seen):
    kernel.on_tick(
        lambda k: seen.append(
            ("tick", k.time, k.load_average, k.run_queue_length, k.cum_idle)
        )
    )


def add_round_listener(kernel, suite, seen):
    if suite is not None:
        suite.on_round(lambda t, row: seen.append(("round", t, sorted(row.items()))))


def swap_scheduler(index):
    def install(kernel, suite, seen):
        kernel.scheduler = SCHEDULERS[index]()

    return install


mid_run_change = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON),
    st.one_of(
        st.just(add_tick_listener),
        st.just(add_round_listener),
        st.integers(min_value=0, max_value=2).map(swap_scheduler),
    ),
)


@given(p=plan, extras=st.lists(mid_run_change, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_mid_run_listeners_and_scheduler_swaps(p, extras):
    assert_same_run(p, extras)
