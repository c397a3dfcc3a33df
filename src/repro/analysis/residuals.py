"""Residual significance analysis (the analysis the paper omitted).

Section 3 of the paper notes: "The instances in which forecast accuracy is
better than measurement accuracy are curious.  An analysis of the
measurement and forecasting residuals is inconclusive with respect to the
significance of this difference...  we omit that analysis in favor of
brevity."  This module performs exactly that analysis so the reproduction
can report it:

* paired per-sample absolute residuals of two estimators against the same
  ground truth;
* the Wilcoxon signed-rank test on the residual differences (robust,
  distribution-free -- appropriate because the residuals are decidedly
  non-Gaussian);
* a paired bootstrap confidence interval on the MAE difference, which is
  the quantity the paper's tables actually print.

The verdict mirrors the paper's experience: on our traces the
forecast-vs-measurement differences are small and mostly *not*
significant, i.e. "measurement and forecasting accuracy are approximately
the same" survives scrutiny.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ResidualComparison", "compare_residuals", "bootstrap_mae_difference"]


@dataclass(frozen=True)
class ResidualComparison:
    """Outcome of comparing two estimators' absolute residuals.

    Attributes
    ----------
    mae_a / mae_b:
        Mean absolute error of each estimator.
    mae_difference:
        ``mae_a - mae_b`` (negative = A more accurate).
    wilcoxon_p:
        Two-sided Wilcoxon signed-rank p-value on the paired |residual|
        differences (NaN when every pair ties).
    ci_low / ci_high:
        Bootstrap 95 % confidence interval for the MAE difference.
    n:
        Number of paired samples.
    """

    mae_a: float
    mae_b: float
    mae_difference: float
    wilcoxon_p: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def significant(self) -> bool:
        """True when the 95 % CI excludes zero and Wilcoxon p < 0.05."""
        if np.isnan(self.wilcoxon_p):
            return False
        ci_excludes_zero = (self.ci_low > 0.0) or (self.ci_high < 0.0)
        return bool(ci_excludes_zero and self.wilcoxon_p < 0.05)

    def verdict(self) -> str:
        """Human-readable conclusion."""
        if not self.significant:
            return "no significant accuracy difference"
        better = "A" if self.mae_difference < 0.0 else "B"
        return f"estimator {better} is significantly more accurate"


def bootstrap_mae_difference(
    residuals_a: np.ndarray,
    residuals_b: np.ndarray,
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    rng: np.random.Generator | int | None = 0,
) -> tuple[float, float]:
    """Paired bootstrap CI for ``mean|res_a| - mean|res_b|``.

    Parameters
    ----------
    residuals_a / residuals_b:
        Paired signed residuals (same ground-truth samples).
    n_boot:
        Bootstrap replicates.
    confidence:
        Two-sided confidence level in (0, 1).
    rng:
        Seed or generator for reproducibility.
    """
    a = np.abs(np.asarray(residuals_a, dtype=np.float64))
    b = np.abs(np.asarray(residuals_b, dtype=np.float64))
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need paired 1-D residual arrays of length >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    diff = a - b
    n = diff.size
    indices = gen.integers(0, n, size=(int(n_boot), n))
    replicates = diff[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(replicates, alpha)),
        float(np.quantile(replicates, 1.0 - alpha)),
    )


def compare_residuals(
    predictions_a,
    predictions_b,
    truth,
    *,
    n_boot: int = 2000,
    rng: np.random.Generator | int | None = 0,
) -> ResidualComparison:
    """Full paired comparison of two estimators against one ground truth.

    Parameters
    ----------
    predictions_a / predictions_b:
        The two estimators' values for the same ``truth`` samples (e.g.
        NWS forecasts vs raw pre-test measurements).
    truth:
        Ground-truth observations (the test-process availabilities).
    """
    a = np.asarray(predictions_a, dtype=np.float64)
    b = np.asarray(predictions_b, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if not (a.shape == b.shape == t.shape) or a.ndim != 1 or a.size < 5:
        raise ValueError("need three matched 1-D arrays of length >= 5")

    res_a = a - t
    res_b = b - t
    abs_diff = np.abs(res_a) - np.abs(res_b)
    if np.allclose(abs_diff, 0.0):
        p_value = float("nan")
    else:
        # The only scipy call in the package: importing it here keeps
        # scipy.stats (~1 s) out of every process that never compares
        # residuals, the report and the forecast server included.
        from scipy import stats

        p_value = float(stats.wilcoxon(np.abs(res_a), np.abs(res_b)).pvalue)
    ci_low, ci_high = bootstrap_mae_difference(res_a, res_b, n_boot=n_boot, rng=rng)
    return ResidualComparison(
        mae_a=float(np.abs(res_a).mean()),
        mae_b=float(np.abs(res_b).mean()),
        mae_difference=float(abs_diff.mean()),
        wilcoxon_p=p_value,
        ci_low=ci_low,
        ci_high=ci_high,
        n=a.size,
    )
