"""Shared fixtures: short reproducible testbed runs, seeded RNGs; a per-test watchdog."""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

from repro.experiments.testbed import TestbedConfig
from repro.runner import default_runner


#: Wall seconds one test call may take before the run dumps every thread's
#: stack and exits non-zero: a loop that never ends fails Tier-1 instead of
#: hanging it.  The slowest Tier-1 test takes a few seconds.
TEST_TIMEOUT_S = 120.0

#: A copy of the terminal's stderr for the watchdog's dump, taken in
#: ``pytest_configure`` while output is not captured: the process exits
#: before pytest could report what a test wrote to the captured stream.
_watchdog_fd: int | None = None


def pytest_configure(config):
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_watchdog_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


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
