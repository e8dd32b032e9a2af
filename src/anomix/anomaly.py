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

Against a posterior sample, the PIT values are the posterior-predictive
PIT, each row's CDF averaged over the draws: the quantity that calibration
theory makes uniform (Gneiting, Balabdaoui & Raftery 2007), so each window
is scored once.  A series also keeps the 5%/95% band of the per-draw
scores, read from one sort of the draw axis.

``sum_cdf`` answers every query inside the support by Horner's rule on a
per-knot Taylor table, within about 4e-16 of the exact CDF.  The table is
built once per weight vector by a walk in exact integers, every weight
and knot being an integer on the grid of the finest weight, so each entry
is rounded once.  The law on ``[0, S]`` is symmetric, ``F(q) + F(S - q) =
1``, so the table covers the knots below ``S / 2`` and a query above is
answered as ``1 - F(S - q)``.  A query finds its knot by binary search.
Windows hold at most ``MAX_WINDOW`` weights, because the table's build
doubles in cost with every added weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Dataset, _cdf_from_moments
from .posterior import _lerp, _quantile_rows

__all__ = [
    "PIT_EPS",
    "MAX_WINDOW",
    "WeightVector",
    "WeightedUniformSumDist",
    "AnomalyScoreSeries",
    "default_decay",
    "exp_weights",
    "build_sum_dist",
    "sum_cdf",
    "score_series",
]

# Clamp keeps PIT values strictly inside (0, 1): the weighted-sum law is
# continuous on a compact support and must never see an exact endpoint.
PIT_EPS = 1e-15

# Longest window: the Taylor table's knot-to-knot build over the knots
# below the centre costs O(2**n * n**2) integer operations, 53-76 ms at 12
# weights on two cores (22-38 ms at 11, 0.5-0.8 ms at 6).
MAX_WINDOW = 12

_LOG_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class WeightVector:
    """Positive weights summing to one, ordered oldest to newest."""

    weights: np.ndarray

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
    return WeightVector(w / w.sum())


@dataclass(frozen=True)
class WeightedUniformSumDist:
    """Cached exact distribution of ``sum_s w_s U_s`` with ``U_s ~ U(0, 1)``.

    Every float is an integer times a power of two, so on the grid of
    ``2**-scale`` each kept weight, and each subset sum, is an exact integer.
    ``unit_sums`` holds all subset sums of the kept weights in that unit, in
    ascending order with matching cardinality-parity signs; ``subset_sums``
    are their roundings and ``subset_lows`` the rounding errors, and those
    below ``support_end / 2`` are the knots of ``taylor_table``.
    ``unit_norm`` is ``degree! prod(w)`` in units of ``2**(-scale * degree)``.
    ``degree`` is the number of weights kept: ``build_sum_dist`` drops the
    smallest only where that product would underflow.
    """

    weights: WeightVector
    subset_sums: np.ndarray
    subset_lows: np.ndarray
    subset_signs: np.ndarray
    unit_sums: tuple = field(repr=False)
    unit_norm: int
    scale: int
    degree: int
    support_end: float

    def __post_init__(self):
        if len(self.subset_sums) != 2**self.degree:
            raise ValueError("expected one subset sum per weight subset")
        if self.subset_sums[0] != 0.0 or abs(self.subset_sums[-1] - self.support_end) > 1e-9:
            raise ValueError("subset sums must run from 0 to the kept-weight total")
        if np.any(self.subset_sums[1:] < self.subset_sums[:-1]):
            raise ValueError("subset sums must be non-decreasing: knot lookups rely on their order")
        if not len(self.subset_lows) == len(self.subset_signs) == len(self.unit_sums) == len(self.subset_sums):
            raise ValueError("expected one rounding error, one sign and one exact sum per subset sum")

    @functools.cached_property
    def taylor_table(self) -> np.ndarray:
        """(degree + 1, knots) Taylor coefficients F^(m)(s_i) / m! at the knots
        below ``support_end / 2``: a query at or below that lies past no other.

        In grid units, ``unit_norm F(s_i + t)`` is the integer polynomial
        sum_{j <= i} sign_j (t + s_i - s_j)^n.  Its coefficients at knot i + 1
        are those at knot i shifted across the gap (Horner's scheme applied n
        times), plus sign_{i+1} in the t^n one: an exact walk in O(2^n n^2),
        and each entry is rounded once, when it is divided by the norm.
        """
        n, sums, signs = self.degree, self.unit_sums, self.subset_signs.tolist()
        count = int(np.searchsorted(self.subset_sums, self.support_end / 2))
        table, coeffs = np.empty((n + 1, count)), [0] * n + [1]  # t^n at the empty subset's knot, 0
        for i in range(count):
            if i:
                gap = sums[i] - sums[i - 1]
                for low in range(n):
                    for m in range(n - 1, low - 1, -1):
                        coeffs[m] += gap * coeffs[m + 1]
                coeffs[n] += int(signs[i])
            # Rounded as it goes: a column of big integers per knot would outweigh the table.
            table[:, i] = [(c << self.scale * m) / self.unit_norm for m, c in enumerate(coeffs)]
        return table


def build_sum_dist(w: WeightVector) -> WeightedUniformSumDist:
    """Enumerate and cache all subset sums for the weighted-uniform-sum CDF.

    The Taylor table is exact up to one rounding per entry, so every weight
    is kept unless the normalizing constant ``n! prod(w)`` underflows, past
    which the table's entries could overflow.  Only then are the smallest
    weights shed, until it does not: each shed weight is below
    ``tiny**(1 / n)``, under 3e-26 of the mass.  The table is built on first
    use.
    """
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window length {n} exceeds the supported maximum {MAX_WINDOW}")
    kept = w.weights
    while math.lgamma(len(kept) + 1) + float(np.log(kept).sum()) <= _LOG_TINY:
        kept = np.sort(kept)[1:]
    return _enumerate(w, kept)


def _enumerate(w: WeightVector, kept: np.ndarray) -> WeightedUniformSumDist:
    """The distribution of the kept weights' sum, its subset sums enumerated exactly."""
    ratios = [x.as_integer_ratio() for x in kept.tolist()]
    grid = max(den for _, den in ratios)  # powers of two: a multiple of every other
    units = [num * (grid // den) for num, den in ratios]
    sums, odd = [0], [False]
    for u in units:
        sums += [s + u for s in sums]
        odd += [not o for o in odd]
    order = sorted(range(len(sums)), key=sums.__getitem__)
    unit_sums = tuple(sums[i] for i in order)
    hi = [s / grid for s in unit_sums]  # int / int rounds once
    # Each rounded sum is a multiple of 1 / grid too, so what it misses is a whole number of grid steps.
    rounded = [h.as_integer_ratio() for h in hi]
    lo = [(s - num * (grid // den)) / grid for s, (num, den) in zip(unit_sums, rounded)]
    degree, scale = len(units), grid.bit_length() - 1
    unit_norm = math.factorial(degree) * math.prod(units)
    return WeightedUniformSumDist(
        weights=w,
        subset_sums=np.array(hi),
        subset_lows=np.array(lo),
        subset_signs=np.where(np.array(odd)[order], -1.0, 1.0),
        unit_sums=unit_sums,
        unit_norm=unit_norm,
        scale=scale,
        degree=degree,
        support_end=hi[-1],
    )


def sum_cdf(dist: WeightedUniformSumDist, q) -> float | np.ndarray:
    """CDF of the weighted uniform sum at every query in ``q``.

    ``q`` is a scalar or an array of any shape; a 0-d query returns a
    ``float`` and any other an array of ``q``'s shape.  A NaN anywhere in
    ``q`` has no probability and raises.  A query above ``S / 2`` is
    answered as ``1 - F(S - q)``, its reflection exact by Sterbenz's lemma.
    Inside the support, Horner's rule on the knot's ``taylor_table`` column
    in the offset from the knot is within about 2e-16 of the exact CDF.
    """
    q = np.asarray(q, dtype=float)
    if np.isnan(q).any():
        raise ValueError("sum_cdf query is NaN")
    upper = q > dist.support_end / 2
    lower = np.where(upper, dist.support_end - q, q)  # at most 0 outside the support
    f, inside = np.zeros(q.shape), lower > 0.0
    if inside.any():  # the table is built on first use: only queries inside the support need it
        f[inside] = _horner(dist, lower[inside])
    out = np.where(upper, 1.0 - f, f)
    return float(out) if out.ndim == 0 else out


def _horner(dist: WeightedUniformSumDist, interior: np.ndarray) -> np.ndarray:
    """The clipped CDF at queries in (0, support_end / 2], a vector."""
    knots = np.searchsorted(dist.subset_sums, interior) - 1  # the last knot below each query
    t = (interior - dist.subset_sums[knots]) - dist.subset_lows[knots]
    table = dist.taylor_table
    vals = table[-1, knots]
    for row in table[-2::-1]:
        vals *= t
        vals += row[knots]
    return np.clip(vals, 0.0, 1.0, out=vals)


# ---------------------------------------------------------------------------
# PIT and scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """Scores over sliding windows, stamped at each window's newest element."""

    timestamps: np.ndarray
    as_values: np.ndarray
    threshold: float
    theta_low: np.ndarray
    theta_high: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        for name in ("as_values", "theta_low", "theta_high"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.ndim != 1 or len(vals) != len(ts):
                raise ValueError(f"{name} must hold one value per timestamp")
            # Written so that NaN, which compares false, fails it too.
            if not np.all((vals >= 0.0) & (vals <= 1.0)):
                raise ValueError(f"{name} must be finite and lie in [0, 1]")
            object.__setattr__(self, name, vals)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.as_values.shape[0]


@functools.lru_cache(maxsize=4)
def _window_dist(length: int, decay: float) -> WeightedUniformSumDist:
    """One distribution, and so one Taylor table, per window shape."""
    return build_sum_dist(exp_weights(length, decay))


def score_series(
    data: Dataset,
    sample,
    k: int,
    decay: float | None = None,
    threshold: float = 0.975,
) -> AnomalyScoreSeries:
    """Posterior-predictive anomaly score on every sliding window of length k + 1.

    The first k timestamps carry no score.  A window's score folds the
    sum-CDF at ``Q = sum_i w_i u_i``, where ``u_i`` is the posterior-
    predictive PIT of row i, the mean over draws of each draw's PIT.  That
    ``Q`` is also the mean over draws of each draw's window statistic
    ``q``.  The band is the 5% and 95% quantiles of the per-draw scores;
    it need not bracket the score.

    A draw's score is a monotone function of ``|q - c|``, ``c`` the centre
    of the sum law's symmetric support, so the band's order statistics are
    those of ``|q - c|``, sorted in place.  Only the rows the quantiles read
    go through ``sum_cdf``, in one call with the score's ``Q``.
    """
    length = k + 1
    if len(data) < length:
        raise ValueError(f"dataset has {len(data)} rows, need at least {length}")
    dist = _window_dist(length, decay if decay is not None else default_decay(k))
    weights, centre = dist.weights.weights, dist.support_end / 2.0
    spread = np.empty((sample.n_draws, len(data) - k))
    first_pit, offsets = None, np.zeros(len(data))
    for block, inverse, alpha, means, variances in sample.moment_blocks(data.covariates):
        u = np.clip(_cdf_from_moments(alpha, means, variances, data.responses), PIT_EPS, 1.0 - PIT_EPS)
        q = np.lib.stride_tricks.sliding_window_view(u, length, axis=-1) @ weights
        spread[block] = np.abs(np.subtract(q, centre, out=q), out=q)[inverse]
        # The mean PIT as the first draw's plus the mean offset from it: exact where the draws agree.
        u = u[inverse]
        first_pit = u[0].copy() if first_pit is None else first_pit
        offsets += np.subtract(u, first_pit, out=u).sum(axis=0)
        del alpha, means, variances, u, q  # hold one block, not two, while the next one is computed
    pit = first_pit + offsets / sample.n_draws
    spread.sort(axis=0)
    lo, hi, t = _quantile_rows(sample.n_draws, [0.05, 0.95])
    queries = np.concatenate(
        [(np.lib.stride_tricks.sliding_window_view(pit, length) @ weights)[None], centre - spread[lo], centre - spread[hi]]
    )
    f = sum_cdf(dist, queries)
    scores = 1.0 - 2.0 * np.minimum(f, 1.0 - f)
    low, high = _lerp(scores[1:3], scores[3:], t[:, None])
    return AnomalyScoreSeries(
        timestamps=data.timestamps[k:], as_values=scores[0], threshold=threshold, theta_low=low, theta_high=high
    )
