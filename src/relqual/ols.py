"""Ordinary least squares with classical inference, shared across modules.

Solves go through an orthogonal decomposition (``lstsq``), not the normal
equations; the datasets this library targets routinely carry strongly
correlated predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


class RankDeficientError(ValueError):
    """Design matrix is singular; coefficients are not identifiable."""


class InsufficientRowsError(ValueError):
    """Too few observations for the requested model."""


class NonPositiveValuesError(ValueError):
    """Log transform requested on values that are not strictly positive."""


def t_sf_two_sided(t: np.ndarray | float, df: float) -> np.ndarray | float:
    """Two-sided tail probability of Student's t via the regularized
    incomplete beta function: P(|T| >= t) = I_{df/(df+t^2)}(df/2, 1/2)."""
    # imported here, not at module level: scipy.special takes more than half
    # of `import relqual`, and most commands compute no p-value
    from scipy import special

    t = np.asarray(t, dtype=float)
    x = df / (df + t * t)
    p = special.betainc(df / 2.0, 0.5, x)
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of y on [1, X]."""

    intercept: float
    coefficients: np.ndarray      # one per predictor column
    residual_sd_ml: float         # sqrt(SSE / n)
    sse: float
    n: int
    p: int                        # predictor count (intercept excluded)
    std_errors: np.ndarray        # classical, using SSE/(n-p-1); inf if df <= 0
    p_values: np.ndarray          # two-sided t-tests on the coefficients
    r_squared: float
    adjusted_r_squared: float

    @property
    def df_residual(self) -> int:
        return self.n - self.p - 1


def fit_ols(y: np.ndarray, x: np.ndarray | None) -> OlsFit:
    """Fit y ~ 1 + x columns; x may be None or empty for intercept-only."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if x is None:
        x = np.empty((n, 0))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = x.shape[1]
    if n < p + 2:
        raise InsufficientRowsError(f"n={n} rows cannot support {p} predictors")

    design = np.column_stack([np.ones(n), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise RankDeficientError("predictor design matrix is singular")
    constant = bool(np.all(y == y[0]))
    if constant:  # exactly the intercept: rounding noise is no slope and explains nothing
        beta = np.concatenate([y[:1], np.zeros(p)])
    fitted = design @ beta
    resid = y - fitted
    sse = float(resid @ resid)

    sst = 0.0 if constant else float(np.sum((y - y.mean()) ** 2))
    if sst > 0 and sse < 1e-24 * sst:
        sse = 0.0  # numerically perfect fit; stop float dust leaking into tests
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    df = n - p - 1
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df if df > 0 else float("nan")

    if p > 0:
        sigma2 = sse / df
        xtx_inv = np.linalg.inv(design.T @ design)
        se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv)[1:], 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = np.where(se > 0, beta[1:] / np.where(se > 0, se, 1.0), np.inf)
        pvals = np.where(np.isinf(tstat), 0.0, t_sf_two_sided(np.abs(tstat), df))
        pvals = np.where(np.isnan(tstat) | constant, 1.0, pvals)
    else:
        se = np.empty(0)
        pvals = np.empty(0)

    return OlsFit(
        intercept=float(beta[0]),
        coefficients=np.asarray(beta[1:], dtype=float),
        residual_sd_ml=float(np.sqrt(sse / n)),
        sse=sse,
        n=n,
        p=p,
        std_errors=se,
        p_values=np.asarray(pvals, dtype=float),
        r_squared=r2,
        adjusted_r_squared=adj_r2,
    )


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    ci_low: float
    ci_high: float
    std_error: float
    p_value: float
    n: int


def fit_power_law(data: Dataset, response: str, driver: str,
                  controls: tuple[str, ...] = (), level: float = 0.95) -> PowerLawFit:
    """Elasticity of ``response`` with respect to ``driver``.

    Regresses log(response) on log(driver) plus the control columns taken
    as-is; the driver coefficient is the power-law exponent.  The interval
    comes from t quantiles at the given confidence level.
    """
    from scipy import stats

    y = data.column(response)
    d = data.column(driver)
    if np.any(y <= 0) or np.any(d <= 0):
        raise NonPositiveValuesError("response and driver must be strictly positive")
    x_cols = [np.log(d)] + [data.column(c) for c in controls]
    fit = fit_ols(np.log(y), np.column_stack(x_cols))
    exponent = float(fit.coefficients[0])
    se = float(fit.std_errors[0])
    tq = float(stats.t.ppf(0.5 + level / 2.0, fit.df_residual))
    return PowerLawFit(
        exponent=exponent,
        ci_low=exponent - tq * se,
        ci_high=exponent + tq * se,
        std_error=se,
        p_value=float(fit.p_values[0]),
        n=fit.n,
    )
