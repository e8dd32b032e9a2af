"""Reference implementations kept only to check the package against.

``psis_loo_per_point`` is PSIS-LOO one point at a time: per point, one sort
of its log weights, one Zhang & Stephens (2009) GPD fit of its tail, and one
set of GPD quantiles.  The package computes the same thing for blocks of
points at once (``anomix.posterior._psis_loo``).

``raise_alarms_loop``, ``evaluate_loop``, ``pareto_front_loop`` and
``orthogonal_directions_lstsq`` are the sample-by-sample alarm state
machine, the per-failure detection report, the all-pairs frontier walk and
the per-row least-squares disentangled gate directions that
``anomix.detection``, ``anomix.selection`` and ``anomix.explain`` replaced
with one batched computation each.

``sum_cdf_searchsorted`` is ``anomix.anomaly.sum_cdf`` with each query's
knot found by a binary search over the sorted subset sums, the search the
package's bucket index replaced; ``pit_rows`` is the clamped PIT of a batch
of rows under one parameter point, which the package computes per draw
block inside ``score_series``.

``log_target`` is the sampler's unnormalised log posterior at whole states,
evaluated through one fresh ``anomix.posterior._LockstepTarget``.

``softmax_gate``, ``logistic_gate``, ``fuse`` and ``logpdf_from_moments``
are the model's gate, fusion and mixture-density helpers written out of
place, one new array per operation, in the order the package's in-place
versions run the same operations.
"""

import math
import warnings

import numpy as np
from scipy.special import expit, logsumexp

from anomix.anomaly import PIT_EPS, WeightedUniformSumDist
from anomix.detection import AlarmWindow, DetectionReport, DetectionRow
from anomix.model import LOG_2PI, ModelParams, PriorSpec, conditional_cdf_rows
from anomix.posterior import _LockstepTarget


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


def raise_alarms_loop(series, policy) -> list:
    """Alarm windows by a state machine over the samples: an alarm opens at
    the patience-th consecutive exceedance and closes at the first sample
    below the threshold."""
    alarms = []
    run = 0
    onset = None
    last_above = None
    for ts, value in zip(series.timestamps, series.as_values):
        if value >= policy.threshold:
            run += 1
            last_above = ts
            if run == policy.patience:
                onset = ts
        else:
            if onset is not None:
                alarms.append(AlarmWindow(onset, last_above))
            run = 0
            onset = None
    if onset is not None:
        alarms.append(AlarmWindow(onset, last_above))
    return alarms


def evaluate_loop(alarms: list, failures, w_days: list, observed) -> DetectionReport:
    """The detection report from one observation mask per alarm, failure
    window and validity window."""
    observed = np.asarray(observed, dtype="datetime64[s]")
    observed = observed[np.argsort(observed, kind="stable")]
    active = np.zeros(len(observed), dtype=bool)
    for a in alarms:
        active |= (observed >= a.onset) & (observed <= a.end)
    days = observed.astype("datetime64[D]")
    starts = np.asarray(failures.starts, dtype="datetime64[s]")
    ends = np.asarray(failures.ends, dtype="datetime64[s]")

    in_failure = np.zeros(len(observed), dtype=bool)
    for fs, fe in zip(starts, ends):
        in_failure |= (observed >= fs) & (observed <= fe)

    rows = []
    for w in w_days:
        if w <= 0:
            raise ValueError("validity window length must be positive")
        width = np.timedelta64(int(w), "D").astype("timedelta64[s]")
        prev_width = np.timedelta64(int(w - 1), "D").astype("timedelta64[s]")
        in_validity = np.zeros(len(observed), dtype=bool)
        in_bucket = np.zeros(len(observed), dtype=bool)
        tp = 0
        for fs in starts:
            members = (observed >= fs - width) & (observed < fs)
            in_validity |= members
            in_bucket |= members & (observed < fs - prev_width)
            if np.any(members & active):
                tp += 1
        fn = len(failures) - tp

        unique_days = np.unique(days)
        excluded = np.union1d(np.unique(days[in_validity]), np.unique(days[in_failure]))
        outside = np.setdiff1d(unique_days, excluded)
        fp = int(np.isin(outside, np.unique(days[active])).sum())
        tn = len(outside) - fp

        recall = tp / (tp + fn) if (tp + fn) else 0.0
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        f1 = 2 * recall * precision / (recall + precision) if (recall + precision) else 0.0
        rows.append(DetectionRow(int(w), tp, fn, fp, tn, int(in_bucket.sum()), precision, recall, f1))
    return DetectionReport(rows)


def pareto_front_loop(trials: list) -> list:
    """Trials not dominated under (maximize metric, minimize coverage cost),
    each checked against every trial in turn."""
    front = []
    for t in trials:
        dominated = any(
            u.metric >= t.metric
            and u.coverage_cost <= t.coverage_cost
            and (u.metric > t.metric or u.coverage_cost < t.coverage_cost)
            for u in trials
        )
        if not dominated:
            front.append(t)
    return front


def orthogonal_directions_lstsq(slopes: np.ndarray) -> np.ndarray:
    """Per slope row, its component orthogonal to the span of the other rows,
    by one least-squares fit against those rows."""
    rows = []
    for i in range(len(slopes)):
        others = np.delete(slopes, i, axis=0)
        a = slopes[i]
        if len(others):
            coef, *_ = np.linalg.lstsq(others.T, a, rcond=None)
            a = a - others.T @ coef
        rows.append(a)
    return np.array(rows)


def pit_rows(params: ModelParams, X, y) -> np.ndarray:
    """Clamped conditional CDF values, one per covariate/response row."""
    u = conditional_cdf_rows(params, X, y)
    return np.clip(u, PIT_EPS, 1.0 - PIT_EPS)


def searchsorted_knots(dist: WeightedUniformSumDist, interior: np.ndarray) -> np.ndarray:
    """Index of the last knot below each query in (0, support_end)."""
    return np.searchsorted(dist.subset_sums, interior, side="left") - 1


def sum_cdf_searchsorted(dist: WeightedUniformSumDist, q) -> np.ndarray:
    """The sum-CDF at an array of queries: knots by binary search, then
    Horner's rule on each knot's Taylor column, one new array per step."""
    q = np.asarray(q, dtype=float)
    out = np.where(q >= dist.support_end, 1.0, 0.0)
    inside = (q > 0.0) & (q < dist.support_end)
    interior = q[inside]
    if interior.size:
        knots = searchsorted_knots(dist, interior)
        t = (interior - dist.subset_sums[knots]) - dist.subset_lows[knots]
        table = dist.taylor_table
        vals = table[-1, knots]
        for row in table[-2::-1]:
            vals = vals * t + row[knots]
        out[inside] = np.clip(vals, 0.0, 1.0)
    return out


def log_target(experts, mixing, behavior, phi, y, prior: PriorSpec):
    """Unnormalised log posterior at states with any leading (chain) axes, in
    log-sd coordinates (see ``anomix.posterior._experts_part``)."""
    return _LockstepTarget({"experts": experts, "mixing": mixing, "behavior": behavior}, phi, y, prior).current


def softmax_gate(gate_matrix, phi):
    logits = gate_matrix @ np.swapaxes(phi, -1, -2)
    logits = logits - logits.max(axis=-2, keepdims=True)
    alpha = np.exp(logits)
    return alpha / alpha.sum(axis=-2, keepdims=True)


def logistic_gate(behavior_coeffs, phi):
    return expit(behavior_coeffs[..., None, :] @ np.swapaxes(phi, -1, -2))


def fuse(beta, rest, means, variances, blend):
    blend_mean, blend_var = blend
    return beta * means + rest * blend_mean, beta * variances[..., None] + rest * blend_var


def logpdf_from_moments(log_alpha, means, sds, y):
    """Mixture log density of responses ``y`` (..., rows), reduced over the experts by scipy."""
    z = (y[..., None, :] - means) / sds
    comp = -0.5 * z * z - np.log(sds) - 0.5 * LOG_2PI
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return logsumexp(comp + log_alpha, axis=-2)
