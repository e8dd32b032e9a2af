"""Window scoring: PIT values, decaying weights, and the exact CDF of a
weighted sum of uniforms, combined into a bounded anomaly score.

A window's raw statistic ``Q`` is a convex combination of the
per-observation PIT values, weighted so that recent observations matter
most.  Under a correct model each PIT value is uniform on (0, 1) and the
window entries are conditionally independent, so ``Q`` follows the exact
piecewise-polynomial law of a weighted sum of independent uniforms.
Passing ``Q`` through that CDF and folding around 1/2 produces a score
that is itself uniform on (0, 1) for healthy data and approaches 1
whenever the window sits in either tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Dataset, _cdf_from_moments, conditional_cdf_rows

__all__ = [
    "PIT_EPS",
    "MAX_WINDOW",
    "ObservationWindow",
    "WeightVector",
    "WeightedUniformSumDist",
    "AnomalyScoreSeries",
    "pit",
    "pit_rows",
    "default_decay",
    "exp_weights",
    "build_sum_dist",
    "sum_cdf",
    "q_statistic",
    "as_theta",
    "as_posterior",
    "score_series",
]

# Clamp keeps PIT values strictly inside (0, 1): the weighted-sum law is
# continuous on a compact support and must never see an exact endpoint.
PIT_EPS = 1e-15

# 2**20 cached subset sums is about 1M entries; beyond that the exact
# formula stops being a sensible choice.
MAX_WINDOW = 20

_LOG_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class ObservationWindow:
    """Consecutive covariate/response pairs, ordered oldest to newest."""

    covariates: np.ndarray
    responses: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        y = np.asarray(self.responses, dtype=float)
        ts = np.asarray(self.timestamps)
        if x.ndim != 2 or y.ndim != 1:
            raise ValueError("window covariates must be a matrix and responses a vector")
        if not (len(x) == len(y) == len(ts)) or len(y) == 0:
            raise ValueError("window parts must align and be non-empty")
        if len(ts) > 1 and np.any(ts[1:] < ts[:-1]):
            raise ValueError("window must be in chronological order")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.responses.shape[0]

    @classmethod
    def from_dataset(cls, data: Dataset, start: int, stop: int) -> "ObservationWindow":
        return cls(data.covariates[start:stop], data.responses[start:stop], data.timestamps[start:stop])


@dataclass(frozen=True)
class WeightVector:
    """Positive weights summing to one, ordered oldest to newest."""

    weights: np.ndarray
    decay: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def default_decay(k: int) -> float:
    """Decay at which the oldest window element keeps 1% of the newest's weight."""
    if k < 1:
        return 1.0
    return math.log(100.0) / k


def exp_weights(length: int, decay: float) -> WeightVector:
    """Normalized weights proportional to ``exp(-decay * lag)``.

    Lag is counted in samples back from the newest element, so consecutive
    weights grow by a factor ``exp(decay)`` toward the present.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if not decay > 0.0:
        raise ValueError("decay must be positive")
    lags = np.arange(length - 1, -1, -1, dtype=float)
    w = np.exp(-decay * lags)
    if w[0] == 0.0:
        raise ValueError("decay too large for this window: the oldest weight underflows")
    return WeightVector(w / w.sum(), decay)


@dataclass(frozen=True)
class WeightedUniformSumDist:
    """Cached exact distribution of ``sum_s w_s U_s`` with ``U_s ~ U(0, 1)``.

    ``subset_sums`` holds all partial sums of the weights in ascending
    order with matching cardinality-parity signs; a CDF query only touches
    the prefix of sums strictly below the query point.  ``n`` is the window
    length; ``degree`` is the number of weights actually kept.  Weights are
    dropped only when double precision cannot represent the normalizing
    constant, and the dropped mass never exceeds 1e-6, which bounds the
    resulting CDF shift.
    """

    weights: WeightVector
    subset_sums: np.ndarray
    subset_signs: np.ndarray
    norm_const: float
    log_norm: float
    n: int
    degree: int
    support_end: float

    def __post_init__(self):
        if len(self.subset_sums) != 2**self.degree:
            raise ValueError("expected one subset sum per weight subset")
        if self.subset_sums[0] != 0.0 or abs(self.subset_sums[-1] - self.support_end) > 1e-9:
            raise ValueError("subset sums must run from 0 to the kept-weight total")


def _log_norm(weights: np.ndarray) -> float:
    return math.lgamma(len(weights) + 1) + float(np.log(weights).sum())


def build_sum_dist(w: WeightVector) -> WeightedUniformSumDist:
    """Enumerate and cache all subset sums for the weighted-uniform-sum CDF."""
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window length {n} exceeds the supported maximum {MAX_WINDOW}")
    kept = w.weights
    log_norm = _log_norm(kept)
    if log_norm <= _LOG_TINY:
        # The normalizing constant underflows, so the alternating sum is
        # hopeless as written: shed the smallest weights (at most 1e-6 of
        # total mass) until the sum is representable and conditioned.
        kept = np.sort(kept)
        dropped = 0.0
        while len(kept) > 1 and dropped + kept[0] <= 1e-6:
            log_norm = _log_norm(kept)
            conditioned = (
                log_norm > _LOG_TINY
                and (len(kept) - 53) * math.log(2.0) - log_norm <= math.log(1e-6)
            )
            if conditioned:
                break
            dropped += kept[0]
            kept = kept[1:]
        log_norm = _log_norm(kept)
    degree = len(kept)
    count = 1 << degree
    # Subset sums are accumulated in double-double precision so that each
    # cached value is the correctly rounded sum of its weights; the
    # alternating CDF series is very sensitive to knot placement.
    hi = np.zeros(count)
    lo = np.zeros(count)
    sizes = np.zeros(count, dtype=np.int64)
    for i, wi in enumerate(kept):
        bit = 1 << i
        a = hi[:bit]
        s = a + wi
        z = s - a
        err = (a - (s - z)) + (wi - z) + lo[:bit]
        hi[bit : 2 * bit] = s + err
        lo[bit : 2 * bit] = err - (hi[bit : 2 * bit] - s)
        sizes[bit : 2 * bit] = sizes[:bit] + 1
    sums = hi
    order = np.argsort(sums, kind="stable")
    signs = np.where(sizes[order] % 2 == 0, 1.0, -1.0)
    norm = math.factorial(degree) * math.prod(kept.tolist()) if log_norm > _LOG_TINY else 0.0
    return WeightedUniformSumDist(
        weights=w,
        subset_sums=sums[order],
        subset_signs=signs,
        norm_const=norm,
        log_norm=log_norm,
        n=n,
        degree=degree,
        support_end=float(kept.sum()),
    )


def sum_cdf(dist: WeightedUniformSumDist, q: float) -> float:
    """Exact CDF of the weighted uniform sum at ``q``.

    Terms are accumulated with exact (Shewchuk) summation because the
    alternating series cancels catastrophically; for weight products too
    small for double precision the ratio is evaluated in log magnitude.
    A NaN query has no probability and raises.
    """
    q = float(q)
    if math.isnan(q):
        raise ValueError("sum_cdf query is NaN")
    if q <= 0.0:
        return 0.0
    if q >= dist.support_end:
        return 1.0
    hi = int(np.searchsorted(dist.subset_sums, q, side="left"))
    diffs = q - dist.subset_sums[:hi]
    signs = dist.subset_signs[:hi]
    if dist.log_norm > _LOG_TINY:
        # float_power routes through libm pow, which rounds more tightly
        # than repeated multiplication; the series lives off cancellation.
        val = math.fsum(signs * np.float_power(diffs, dist.degree)) / dist.norm_const
    else:
        logs = dist.degree * np.log(diffs) - dist.log_norm
        top = float(logs.max())
        inner = math.fsum(signs * np.exp(logs - top))
        if inner <= 0.0:
            return 0.0
        log_val = top + math.log(inner)
        val = math.exp(log_val) if log_val < 0.0 else 1.0
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# PIT and scores
# ---------------------------------------------------------------------------


def pit_rows(params: ModelParams, X, y) -> np.ndarray:
    """Clamped conditional CDF values, one per covariate/response row."""
    u = conditional_cdf_rows(params, X, y)
    return np.clip(u, PIT_EPS, 1.0 - PIT_EPS)


def pit(params: ModelParams, x, y: float) -> float:
    """Probability integral transform of one observation."""
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    x = np.asarray(x, dtype=float)
    return float(pit_rows(params, x[None, :], [y])[0])


def q_statistic(window: ObservationWindow, params: ModelParams, w: WeightVector) -> float:
    """Weighted combination of the window's PIT values, in (0, 1)."""
    if len(w) != len(window):
        raise ValueError(f"weight length {len(w)} does not match window length {len(window)}")
    u = pit_rows(params, window.covariates, window.responses)
    return float(w.weights @ u)


def as_theta(window: ObservationWindow, params: ModelParams, dist: WeightedUniformSumDist) -> float:
    """Single-parameter anomaly score ``1 - 2 min(F, 1 - F)`` of the window."""
    if dist.n != len(window):
        raise ValueError(f"distribution built for length {dist.n}, window has {len(window)}")
    f = sum_cdf(dist, q_statistic(window, params, dist.weights))
    return 1.0 - 2.0 * min(f, 1.0 - f)


def _draw_scores(sample, X, y, dist: WeightedUniformSumDist) -> np.ndarray:
    """(draws x windows) single-draw scores of every sliding window of the rows."""
    length = dist.n
    per_draw = np.empty((sample.n_draws, len(y) - length + 1))
    for block, alpha, means, sds in sample.moment_blocks(X):
        u = np.clip(_cdf_from_moments(alpha, means, sds, y), PIT_EPS, 1.0 - PIT_EPS)
        qs = np.lib.stride_tricks.sliding_window_view(u, length, axis=-1) @ dist.weights.weights
        f = np.array([sum_cdf(dist, q) for q in qs.ravel()]).reshape(qs.shape)
        per_draw[block] = 1.0 - 2.0 * np.minimum(f, 1.0 - f)
    return per_draw


def as_posterior(window: ObservationWindow, sample, w: WeightVector) -> float:
    """Posterior-mean anomaly score, averaged over stored parameter draws."""
    if len(w) != len(window):
        raise ValueError(f"weight length {len(w)} does not match window length {len(window)}")
    dist = build_sum_dist(w)
    return float(_draw_scores(sample, window.covariates, window.responses, dist).mean())


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """Scores over sliding windows, stamped at each window's newest element."""

    timestamps: np.ndarray
    as_values: np.ndarray
    threshold: float
    theta_low: np.ndarray | None = None
    theta_high: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.as_values, dtype=float)
        ts = np.asarray(self.timestamps)
        if vals.ndim != 1 or len(vals) != len(ts):
            raise ValueError("timestamps and score values must align")
        if len(vals) and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ValueError("anomaly scores must lie in [0, 1]")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        object.__setattr__(self, "as_values", vals)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.as_values.shape[0]


def score_series(
    data: Dataset,
    sample,
    k: int,
    decay: float | None = None,
    threshold: float = 0.975,
    quantiles: tuple = (0.05, 0.95),
) -> AnomalyScoreSeries:
    """Posterior-mean anomaly score on every sliding window of length k + 1.

    The first k timestamps carry no score.  Alongside the posterior mean,
    the requested quantiles of the per-draw scores are recorded for band
    plots.
    """
    length = k + 1
    if len(data) < length:
        raise ValueError(f"dataset has {len(data)} rows, need at least {length}")
    w = exp_weights(length, decay if decay is not None else default_decay(k))
    per_draw = _draw_scores(sample, data.covariates, data.responses, build_sum_dist(w))
    return AnomalyScoreSeries(
        timestamps=data.timestamps[k:],
        as_values=per_draw.mean(axis=0),
        threshold=threshold,
        theta_low=np.quantile(per_draw, quantiles[0], axis=0),
        theta_high=np.quantile(per_draw, quantiles[1], axis=0),
    )
