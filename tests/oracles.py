"""Reference implementations kept only to check the package against.

``psis_loo_per_point`` is PSIS-LOO one point at a time: per point, one sort
of its log weights, one Zhang & Stephens (2009) GPD fit of its tail, and one
set of GPD quantiles.  The package computes the same thing for blocks of
points at once (``anomix.posterior._psis_loo``).
"""

import math
import warnings

import numpy as np
from scipy.special import logsumexp


def fit_gpd(excesses: np.ndarray):
    """Zhang & Stephens (2009) posterior-mean estimate of the GPD shape and
    scale, with the shape weakly regularised toward 0.5."""
    x = np.sort(excesses)
    n = len(x)
    m_grid = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m_grid / (np.arange(m_grid, dtype=float) + 0.5))
    b = b / (3.0 * x[(n - 2) // 4]) + 1.0 / x[-1]
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    log_lik = n * (np.log(-(b / k)) - k - 1.0)
    weights = 1.0 / np.exp(log_lik - log_lik[:, None]).sum(axis=1)
    b_post = float(np.sum(b * weights) / weights.sum())
    k_post = float(np.log1p(-b_post * x).mean())
    sigma = -k_post / b_post
    k_hat = (n * k_post + 5.0) / (n + 10.0)
    return k_hat, sigma


def gpd_quantile(p: np.ndarray, mu: float, sigma: float, k: float) -> np.ndarray:
    if abs(k) < 1e-12:
        return mu - sigma * np.log1p(-p)
    return mu + sigma / k * ((1.0 - p) ** (-k) - 1.0)


def smooth_log_weights(lw: np.ndarray):
    """Pareto-smooth one point's shifted log importance weights."""
    s = len(lw)
    tail_len = int(min(math.ceil(0.2 * s), math.ceil(3.0 * math.sqrt(s))))
    if tail_len < 5:
        return lw, math.nan
    order = np.argsort(lw)
    w = np.exp(lw)
    mu = w[order[s - tail_len - 1]]
    tail_idx = order[s - tail_len :]
    excesses = w[tail_idx] - mu
    positive = excesses[excesses > 1e-10 * excesses.max()]
    if len(positive) < 5 or np.ptp(positive) < 1e-12 * positive[-1]:
        return lw, math.nan
    k_hat, sigma = fit_gpd(positive)
    if not (math.isfinite(k_hat) and math.isfinite(sigma)):
        return lw, math.nan
    probs = (np.arange(tail_len) + 0.5) / tail_len
    smoothed = np.minimum(gpd_quantile(probs, mu, sigma, k_hat), w.max())
    out = lw.copy()
    out[tail_idx] = np.log(smoothed)
    return out, k_hat


def psis_loo_per_point(ll: np.ndarray):
    """``(estimate, se, k_hat)`` of PSIS-LOO from (draws x points) log
    densities, smoothing one point at a time."""
    s, n = ll.shape
    smooth = s >= 100
    if not smooth:
        warnings.warn(
            f"only {s} draws available; PSIS smoothing disabled, using raw importance weights",
            RuntimeWarning,
        )
    elpd = np.empty(n)
    k_hat = np.full(n, math.nan)
    for i in range(n):
        lw = -ll[:, i]
        lw -= lw.max()
        if smooth and np.ptp(lw) > 1e-12:
            lw, k_hat[i] = smooth_log_weights(lw)
        elpd[i] = logsumexp(lw + ll[:, i]) - logsumexp(lw)
    estimate = float(elpd.sum())
    se = float(math.sqrt(n * elpd.var(ddof=1))) if n > 1 else 0.0
    return estimate, se, k_hat


def rank_normal_ranks(draws: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) of each column of (draws, P), ties sharing
    their mean rank, one ``np.unique`` per column."""
    ranks = np.empty_like(draws, dtype=float)
    for j, column in enumerate(draws.T):
        _, tie_group, counts = np.unique(column, return_inverse=True, return_counts=True)
        ranks[:, j] = (np.cumsum(counts) - (counts - 1) / 2)[tie_group]
    return ranks
