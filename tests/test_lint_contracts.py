"""Runtime contracts: ensure_fraction and its wiring."""

from __future__ import annotations

import math

import pytest

from repro.contracts import ContractError, ensure_fraction
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


_FRACTIONS = (0.0, -0.0, 1e-12, 0.5, 1.0)


@pytest.mark.parametrize("setting", [None, "0", "off", "FALSE", "no", "1"])
@pytest.mark.parametrize(
    "value", [*_FRACTIONS, -0.01, 1.01, math.nan, math.inf, -math.inf]
)
def test_range_first_matches_env_first(monkeypatch, setting, value):
    """The range test alone decides, whatever ``REPRO_CONTRACTS`` holds.

    The variable no longer switches contracts off: a fraction comes back
    as it went in, sign bit included, and anything else raises.
    """
    if setting is None:
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CONTRACTS", setting)
    if value in _FRACTIONS:
        result = ensure_fraction(value)
        assert repr(result) == repr(value)
        assert math.copysign(1.0, result) == math.copysign(1.0, value)
    else:
        with pytest.raises(ContractError, match="fraction in \\[0, 1\\]"):
            ensure_fraction(value)


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
