"""Tests for repro.experiments.testbed (config, simulation)."""

import numpy as np
import pytest

from repro.experiments.testbed import TestbedConfig, simulate_host
from repro.runner import default_runner
from repro.sensors.suite import METHODS

from tests.conftest import SHORT


class TestConfigValidation:
    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            TestbedConfig(duration=100.0, warmup=600.0)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            TestbedConfig(scheduler="fifo")

    def test_construction_is_keyword_only(self):
        with pytest.raises(TypeError):
            TestbedConfig(3600.0)

    def test_derive_overrides_and_preserves(self):
        base = TestbedConfig(duration=8 * 3600.0, seed=11)
        medium = base.derive(test_period=3600.0, test_duration=300.0)
        assert medium.test_period == 3600.0
        assert medium.test_duration == 300.0
        assert medium.duration == base.duration
        assert medium.seed == base.seed
        assert base.test_period == 600.0  # base untouched

    def test_derive_revalidates(self):
        base = TestbedConfig(duration=8 * 3600.0)
        with pytest.raises(ValueError):
            base.derive(duration=10.0)


class TestSimulateHost:
    def test_memoization_via_default_runner(self):
        a = default_runner().run_one("thing1", SHORT)
        b = default_runner().run_one("thing1", SHORT)
        assert a is b

    def test_distinct_configs_not_shared(self):
        a = default_runner().run_one("thing1", SHORT)
        other = SHORT.derive(seed=SHORT.seed + 1)
        b = default_runner().run_one("thing1", other)
        assert a is not b
        default_runner().clear_memory()

    def test_series_present_for_all_methods(self, thing1_run):
        assert set(thing1_run.series) == set(METHODS)
        for method in METHODS:
            series = thing1_run.series[method]
            assert len(series) > 1000  # 4 h of 10 s samples post-warmup
            assert np.all((series.values >= 0.0) & (series.values <= 1.0))

    def test_observations_populated(self, thing1_run):
        assert len(thing1_run.observations) >= 20
        truth = thing1_run.observed()
        assert np.all((truth >= 0.0) & (truth <= 1.0))

    def test_premeasurement_alignment(self, thing1_run):
        pre = thing1_run.premeasurements("load_average")
        assert pre.shape == thing1_run.observed().shape

    def test_determinism_across_cache_clears(self):
        first = default_runner().run_one("gremlin", SHORT).values("load_average").copy()
        default_runner().clear_memory()
        second = default_runner().run_one("gremlin", SHORT).values("load_average")
        np.testing.assert_array_equal(first, second)

    def test_pure_simulate_matches_runner(self, thing1_run):
        fresh = simulate_host("thing1", SHORT)
        assert fresh is not thing1_run
        np.testing.assert_array_equal(
            fresh.values("load_average"), thing1_run.values("load_average")
        )

    def test_hosts_evolve_independently(self, thing1_run, thing2_run):
        n = min(len(thing1_run.values("load_average")), len(thing2_run.values("load_average")))
        assert not np.array_equal(
            thing1_run.values("load_average")[:n],
            thing2_run.values("load_average")[:n],
        )
