"""Tests for repro.analysis.acf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acf import acf, acf_confidence_band, integrated_acf_time


class TestAcf:
    def test_lag_zero_is_one(self, rng):
        x = rng.normal(size=500)
        assert acf(x, nlags=10)[0] == 1.0

    def test_white_noise_is_small_beyond_lag_zero(self, rng):
        x = rng.normal(size=20_000)
        rho = acf(x, nlags=50)
        band = acf_confidence_band(x.size, level=0.999)
        assert np.all(np.abs(rho[1:]) < 3 * band)

    def test_ar1_matches_theory(self, rng):
        phi = 0.8
        n = 60_000
        eps = rng.normal(size=n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        rho = acf(x, nlags=5)
        for k in range(1, 6):
            assert rho[k] == pytest.approx(phi**k, abs=0.03)

    def test_fft_and_direct_agree(self, rng):
        x = rng.normal(size=777)
        np.testing.assert_allclose(
            acf(x, nlags=60, fft=True), acf(x, nlags=60, fft=False), atol=1e-10
        )

    def test_lags_beyond_series_length_are_zero(self, rng):
        x = rng.normal(size=20)
        rho = acf(x, nlags=50)
        assert rho.shape == (51,)
        assert np.all(rho[20:] == 0.0)

    def test_values_bounded_by_one(self, rng):
        x = rng.normal(size=300).cumsum()  # strongly correlated series
        rho = acf(x, nlags=100)
        assert np.all(np.abs(rho) <= 1.0 + 1e-9)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            acf(np.ones(100), nlags=10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            acf([1.0, np.nan, 2.0], nlags=2)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            acf(np.ones((3, 3)), nlags=2)

    def test_bad_nlags_rejected(self, rng):
        with pytest.raises(ValueError):
            acf(rng.normal(size=10), nlags=0)

    @given(st.integers(min_value=10, max_value=200), st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_property_bounded_and_unit_at_zero(self, n, nlags):
        gen = np.random.default_rng(n * 1000 + nlags)
        x = gen.normal(size=n)
        rho = acf(x, nlags=nlags)
        assert rho[0] == 1.0
        assert np.all(np.abs(rho) <= 1.0 + 1e-9)


class TestConfidenceBand:
    def test_scales_as_inverse_sqrt_n(self):
        assert acf_confidence_band(400) == pytest.approx(
            acf_confidence_band(100) / 2.0
        )

    def test_95_percent_value(self):
        assert acf_confidence_band(100, level=0.95) == pytest.approx(0.196, abs=1e-3)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_matches_scipy_normal_quantile(self, level):
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + level / 2.0))
        assert acf_confidence_band(1, level=level) == pytest.approx(z, abs=1e-12)
        assert acf_confidence_band(100, level=level) == pytest.approx(z / 10.0, abs=1e-12)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            acf_confidence_band(100, level=1.5)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            acf_confidence_band(0)


class TestIntegratedAcfTime:
    def test_white_noise_near_one(self, rng):
        x = rng.normal(size=30_000)
        assert integrated_acf_time(x) == pytest.approx(1.0, abs=0.25)

    def test_correlated_series_much_larger(self, rng):
        # AR(1) with phi=0.9 has integrated time (1+phi)/(1-phi) = 19.
        phi = 0.9
        n = 60_000
        eps = rng.normal(size=n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        tau = integrated_acf_time(x)
        assert 10.0 < tau < 30.0

    def test_max_lag_cap(self, rng):
        x = rng.normal(size=1000).cumsum()
        assert integrated_acf_time(x, max_lag=5) <= 11.0
