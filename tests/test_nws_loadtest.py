"""Loadtest harness: deterministic reports, jobs-invariance, parity.

The acceptance property under test: the rendered report (and its
combined digest) is a pure function of the :class:`LoadtestConfig` --
identical across reruns, worker-thread counts and transports.  Wall
clock readings stay out of the rendered artifact.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.nws import ForecastServer, NWSClient, ServiceCore
from repro.nws.loadtest import (
    LoadtestConfig,
    build_plans,
    render,
    run_loadtest,
)

SMALL = LoadtestConfig(series=16, clients=4, operations=240, seed=3)


def run(config: LoadtestConfig):
    with NWSClient.in_process(ServiceCore(tenants=config.tenants)) as base:
        return run_loadtest(base.for_tenant, config)


class TestConfig:
    def test_defaults_meet_acceptance_floor(self):
        assert LoadtestConfig().series >= 1000

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"series": 0}, "must be >= 1"),
            ({"operations": 0}, "must be >= 1"),
            ({"series": 2, "clients": 3}, "more clients"),
            ({"jobs": 0}, "jobs"),
            ({"tenants": ()}, "tenant"),
            ({"horizon": 0}, "horizon"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoadtestConfig(**kwargs)


class TestPlans:
    def test_deterministic(self):
        assert build_plans(SMALL) == build_plans(SMALL)

    def test_op_budget_exact(self):
        plans = build_plans(SMALL)
        # One register per client, then exactly `operations` planned ops.
        assert sum(len(p.ops) for p in plans) == SMALL.operations + SMALL.clients
        assert all(p.ops[0].kind == "register" for p in plans)

    def test_series_ownership_disjoint(self):
        plans = build_plans(SMALL)
        owned = [
            {op.series for op in plan.ops if op.series} for plan in plans
        ]
        for i, a in enumerate(owned):
            for b in owned[i + 1:]:
                assert not (a & b)

    def test_tenants_dealt_round_robin(self):
        config = dataclasses.replace(SMALL, tenants=("a", "b"))
        plans = build_plans(config)
        assert [p.tenant for p in plans] == ["a", "b", "a", "b"]

    def test_chaos_compiles_per_client(self):
        plans = build_plans(dataclasses.replace(SMALL, chaos="dropout10"))
        assert all(p.faults is not None for p in plans)
        with pytest.raises(KeyError, match="unknown fault plan"):
            build_plans(dataclasses.replace(SMALL, chaos="nonsense"))


class TestDeterminism:
    def test_rerun_byte_identical(self):
        first = run(SMALL)
        second = run(SMALL)
        assert first.digest == second.digest
        assert render(first) == render(second)

    def test_jobs_invariant(self):
        serial = run(SMALL)
        threaded = run(dataclasses.replace(SMALL, jobs=4))
        assert serial.digest == threaded.digest
        assert render(serial) == render(threaded)

    def test_seed_changes_digest(self):
        assert run(SMALL).digest != run(dataclasses.replace(SMALL, seed=4)).digest

    def test_chaos_deterministic(self):
        config = dataclasses.replace(SMALL, chaos="dropout10")
        first = run(config)
        second = run(config)
        assert first.fault_counts == second.fault_counts
        assert sum(first.fault_counts.values()) > 0
        assert render(first) == render(second)

    def test_multi_tenant(self):
        config = dataclasses.replace(SMALL, tenants=("a", "b"))
        first = run(config)
        second = run(config)
        assert first.digest == second.digest


class TestRender:
    def test_wall_clock_stays_out(self):
        report = run(SMALL)
        text = render(report)
        assert "wall" not in text
        assert report.digest in text
        assert f"seed={SMALL.seed}" in text

    def test_op_counts_total(self):
        report = run(SMALL)
        assert sum(report.op_counts.values()) == SMALL.operations + SMALL.clients


class TestTransportParity:
    def test_http_digest_matches_in_process(self):
        config = dataclasses.replace(SMALL, operations=120)
        local = run(config)
        with ForecastServer(ServiceCore(tenants=config.tenants)) as server:
            with NWSClient.connect(server.url) as base:
                remote = run_loadtest(base.for_tenant, config)
        assert remote.digest == local.digest
        assert render(remote) == render(local)
