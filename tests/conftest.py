"""Shared fixtures: short reproducible testbed runs, seeded RNGs."""

from __future__ import annotations

from pathlib import Path

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


#: The shipped package tree the whole-tree lint tests check.
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="session")
def lint_cache_dir(tmp_path_factory) -> Path:
    """One lint result cache per test session.

    The first whole-tree lint of ``src/repro`` fills it; every later one
    (through :func:`repro.lint.lint_paths` or ``nws-repro lint
    --cache-dir``) is a warm whole-run hit.
    """
    return tmp_path_factory.mktemp("lint-cache")


@pytest.fixture(scope="session")
def src_lint_result(lint_cache_dir):
    """The one whole-tree lint of ``src/repro`` shared by the session."""
    from repro.lint import lint_paths

    return lint_paths([SRC], cache_dir=lint_cache_dir)
