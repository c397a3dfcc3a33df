"""Shared fixtures: short reproducible testbed runs, seeded RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.testbed import TestbedConfig
from repro.runner import default_runner


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


#: A short config shared by experiment-level tests: 4 simulated hours is
#: enough for ~23 ground-truth samples and ~1200 measurements per host,
#: while keeping the whole suite fast.  The default runner memoizes, so
#: every test using this config shares one simulation per host.
SHORT = TestbedConfig(duration=4 * 3600.0, seed=7)

#: Medium-term (Table 6 style) short config.
SHORT_MEDIUM = TestbedConfig(
    duration=6 * 3600.0, seed=7, test_period=3600.0, test_duration=300.0
)


@pytest.fixture(scope="session")
def short_config() -> TestbedConfig:
    return SHORT


@pytest.fixture(scope="session")
def thing1_run():
    return default_runner().run_one("thing1", SHORT)


@pytest.fixture(scope="session")
def thing2_run():
    return default_runner().run_one("thing2", SHORT)


@pytest.fixture(scope="session")
def conundrum_run():
    return default_runner().run_one("conundrum", SHORT)


@pytest.fixture(scope="session")
def kongo_run():
    return default_runner().run_one("kongo", SHORT)


@pytest.fixture
def lock_ownership(monkeypatch):
    """Run a test with the NWS stores checking that every mutation of
    their guarded maps holds the store's lock (:mod:`tests.lock_ownership`);
    fails the test if any did not, also from another thread."""
    from tests.lock_ownership import install

    violations = install(monkeypatch)
    yield violations
    assert violations == [], "mutated without the lock:\n" + "\n".join(violations)
