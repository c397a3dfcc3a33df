"""Sample autocorrelation functions (paper Figure 2).

The paper plots the first 360 sample autocorrelations of each 10-second CPU
availability series and observes a slow, hyperbolic-looking decay -- the
signature of long-range dependence.  This module computes the biased sample
ACF (the standard estimator used in that literature), white-noise confidence
bands, and the integrated autocorrelation time used by the tests to assert
"slow decay" quantitatively.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.analysis._validate import as_series, positive_int

__all__ = ["acf", "acf_confidence_band", "integrated_acf_time"]


def acf(x, nlags: int = 360, *, fft: bool = True) -> np.ndarray:
    """Sample autocorrelation function of ``x`` for lags ``0..nlags``.

    Uses the biased estimator

    .. math::

        \\hat\\rho(k) = \\frac{\\sum_{t=1}^{n-k} (x_t-\\bar x)(x_{t+k}-\\bar x)}
                            {\\sum_{t=1}^{n} (x_t-\\bar x)^2}

    which guarantees a positive semi-definite autocorrelation sequence and
    matches what R/S-era self-similarity studies plot.

    Parameters
    ----------
    x:
        1-D series, length at least 2.
    nlags:
        Largest lag to return.  Lags beyond ``len(x) - 1`` are reported as
        0.0 (there is no data to estimate them).
    fft:
        If true (default), compute via FFT in O(n log n); otherwise use the
        direct O(n * nlags) sum.  Both return identical values to within
        floating-point rounding.

    Returns
    -------
    numpy.ndarray
        Array of length ``nlags + 1`` with ``result[0] == 1.0``.

    Raises
    ------
    ValueError
        If the series is constant (ACF undefined) or invalid.
    """
    arr = as_series(x, min_length=2, name="x")
    nlags = positive_int(nlags, name="nlags")
    n = arr.size
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise ValueError("ACF is undefined for a constant series")

    max_lag = min(nlags, n - 1)
    if fft:
        # Zero-pad to at least 2n to avoid circular wrap-around.
        nfft = 1 << int(np.ceil(np.log2(2 * n)))
        spectrum = np.fft.rfft(centered, nfft)
        autocov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[: max_lag + 1]
        rho = autocov / denom
    else:
        rho = np.empty(max_lag + 1)
        for k in range(max_lag + 1):
            rho[k] = np.dot(centered[: n - k], centered[k:]) / denom

    out = np.zeros(nlags + 1)
    out[: max_lag + 1] = rho
    out[0] = 1.0
    return out


def acf_confidence_band(n: int, *, level: float = 0.95) -> float:
    """Half-width of the white-noise confidence band for a sample ACF.

    Under the null hypothesis that the series is i.i.d., the sample
    autocorrelations at nonzero lags are asymptotically N(0, 1/n); the band
    is ``z * n**-0.5``.  A long-range dependent series (like the paper's CPU
    traces) stays far above this band for hundreds of lags.

    Parameters
    ----------
    n:
        Series length used to compute the ACF.
    level:
        Two-sided confidence level in (0, 1).

    Returns
    -------
    float
        The band half-width.
    """
    n = positive_int(n, name="n")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    # The standard library's inverse normal CDF agrees with
    # scipy.stats.norm.ppf to ~1e-15 and costs no scipy import.
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return z / np.sqrt(n)


def integrated_acf_time(x, *, max_lag: int | None = None) -> float:
    """Integrated autocorrelation time ``1 + 2 * sum_k rho(k)``.

    The sum is truncated at the first non-positive autocorrelation
    (Geyer's initial positive sequence rule, simplified), which is a robust
    convention for monotone-decaying ACFs.  For white noise this is ~1; for
    the paper's availability traces it is in the hundreds, quantifying "events
    hours apart are correlated".

    Parameters
    ----------
    x:
        1-D series.
    max_lag:
        Optional hard cap on the truncation lag (default: ``len(x) // 4``).

    Returns
    -------
    float
        The integrated autocorrelation time (>= 1 for positively correlated
        series).
    """
    arr = as_series(x, min_length=4, name="x")
    cap = arr.size // 4 if max_lag is None else positive_int(max_lag, name="max_lag")
    rho = acf(arr, nlags=cap)
    positive = rho[1:]
    cutoff = np.argmax(positive <= 0.0) if np.any(positive <= 0.0) else positive.size
    return float(1.0 + 2.0 * positive[:cutoff].sum())
