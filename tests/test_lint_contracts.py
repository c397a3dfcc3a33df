"""Runtime contracts: ensure_fraction / checked_fraction and their wiring."""

from __future__ import annotations

import math

import pytest

from repro.contracts import (
    ENV_VAR,
    ContractError,
    checked_fraction,
    contracts_enabled,
    ensure_fraction,
)
from repro.core.predictor import NWSPredictor


class TestEnsureFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1e-12])
    def test_accepts_fractions(self, value):
        assert ensure_fraction(value) == value

    @pytest.mark.parametrize(
        "value", [-0.01, 1.01, 100.0, math.nan, math.inf, -math.inf]
    )
    def test_rejects_non_fractions(self, value):
        with pytest.raises(ContractError):
            ensure_fraction(value)

    def test_contract_error_is_value_error(self):
        assert issubclass(ContractError, ValueError)

    def test_name_appears_in_message(self):
        with pytest.raises(ContractError, match="vmstat reading"):
            ensure_fraction(2.0, name="vmstat reading")


def _ensure_fraction_before(value, *, name="availability"):
    """``ensure_fraction`` as it read before the range test came first."""
    if not contracts_enabled():
        return value
    if not 0.0 <= value <= 1.0:
        raise ContractError(f"{name} must be a fraction in [0, 1], got {value!r}")
    return value


def _outcome(fn, value):
    """The return value (bit pattern included), or the error message."""
    try:
        result = fn(value, name="reading")
    except ContractError as exc:
        return ("raises", str(exc))
    return ("returns", repr(result), math.copysign(1.0, result))


@pytest.mark.parametrize("setting", [None, "0", "off", "FALSE", "no", "1"])
@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1e-12, 0.5, 1.0, -0.01, 1.01, math.nan, math.inf, -math.inf],
)
def test_range_first_matches_env_first(monkeypatch, setting, value):
    """Testing the range before reading the environment changes no outcome."""
    if setting is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, setting)
    assert _outcome(ensure_fraction, value) == _outcome(
        _ensure_fraction_before, value
    )


class TestKillSwitch:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert contracts_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "FALSE", "no"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert not contracts_enabled()
        assert ensure_fraction(42.0) == 42.0  # passes through unchecked

    def test_other_values_keep_contracts_on(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        with pytest.raises(ContractError):
            ensure_fraction(42.0)


class TestCheckedFraction:
    def test_validates_return_value(self):
        @checked_fraction
        def broken_sensor():
            return 1.5

        with pytest.raises(ContractError, match="broken_sensor"):
            broken_sensor()

    def test_passes_valid_results_through(self):
        @checked_fraction
        def sensor(x):
            return x / 2.0

        assert sensor(1.0) == 0.5

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")

        @checked_fraction
        def broken_sensor():
            return -3.0

        assert broken_sensor() == -3.0


class TestPredictorWiring:
    def test_observe_rejects_out_of_range(self):
        predictor = NWSPredictor()
        with pytest.raises(ValueError):
            predictor.observe(1.5)

    def test_observe_rejects_nan(self):
        predictor = NWSPredictor()
        with pytest.raises(ValueError):
            predictor.observe(math.nan)

    def test_observe_accepts_fraction(self):
        predictor = NWSPredictor()
        predictor.observe(0.75)
        assert predictor.forecast_next() == pytest.approx(0.75)
