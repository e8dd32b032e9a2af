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
per-knot Taylor table, built once per weight vector, within about 2e-16
of the exact CDF.  The law on ``[0, S]`` is symmetric, ``F(q) + F(S - q) =
1``, so the table covers the knots below ``S / 2`` and a query above is
answered as ``1 - F(S - q)``.  A query finds its knot by binary search.
Windows hold at most ``MAX_WINDOW`` weights, because the table's build
doubles in cost with every added weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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
# below the centre costs O(2**n * n**2) double-double operations, 0.13-0.18 s
# at 12 weights on two cores (0.03-0.05 s at 10, 0.06-0.09 s at 11).
MAX_WINDOW = 12

_LOG_TINY = math.log(np.finfo(float).tiny)

# Largest error allowed in F(support_end / 2) = 1/2 past the walk's 106-bit bound.  Elsewhere
# a table can be off 3.7 times as far: 1.4e-14 where its centre read 3.7e-15, of 3534 scanned.
_SYMMETRY_TOL = 2e-15


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

    ``subset_sums`` holds all partial sums of the weights in ascending
    order with matching cardinality-parity signs, and ``subset_lows`` their
    rounding errors; those below ``support_end / 2`` are the knots of
    ``taylor_table``.  ``n`` is the window length; ``degree`` is the number
    of weights actually kept.  ``build_sum_dist`` drops the smallest weights
    only where the table would otherwise be inaccurate, and the dropped mass
    never exceeds 1e-6, which bounds the resulting CDF shift.
    """

    weights: WeightVector
    subset_sums: np.ndarray
    subset_lows: np.ndarray
    subset_signs: np.ndarray
    norm_const: float
    n: int
    degree: int
    support_end: float

    def __post_init__(self):
        if len(self.subset_sums) != 2**self.degree:
            raise ValueError("expected one subset sum per weight subset")
        if self.subset_sums[0] != 0.0 or abs(self.subset_sums[-1] - self.support_end) > 1e-9:
            raise ValueError("subset sums must run from 0 to the kept-weight total")
        if np.any(self.subset_sums[1:] < self.subset_sums[:-1]):
            raise ValueError("subset sums must be non-decreasing: knot lookups rely on their order")
        if not len(self.subset_lows) == len(self.subset_signs) == len(self.subset_sums):
            raise ValueError("expected one rounding error and one sign per subset sum")

    @functools.cached_property
    def taylor_table(self) -> np.ndarray:
        """(degree + 1, knots) Taylor coefficients F^(m)(s_i) / m! at the knots
        below ``support_end / 2``: a query at or below that lies past no other.

        N F(s_i + t) is the polynomial sum_{j <= i} sign_j (t + s_i - s_j)^n.
        Its derivatives at knot i + 1 are those at knot i shifted across the
        gap d (derivative m gathers derivative m + k times d^k / k!), plus
        n! sign_{i+1} in the n-th: a double-double walk in O(2^n n^2).
        """
        n, fact = self.degree, float(math.factorial(self.degree))
        count = int(np.searchsorted(self.subset_sums, self.support_end / 2))
        s, lo = self.subset_sums[:count], self.subset_lows[:count]
        gap = _two_sum(s[1:], -s[:-1])
        gap = _two_sum(gap[0], gap[1] + (lo[1:] - lo[:-1]))
        # Row i holds gap_i^k / k! for k = 0..n.
        shift_hi, shift_lo = np.ones((count - 1, n + 1)), np.zeros((count - 1, n + 1))
        power = (shift_hi[:, 0], shift_lo[:, 0])
        for k in range(1, n + 1):
            power = _dd_mul(*power, *gap)
            inv = Fraction(1, math.factorial(k))
            shift_hi[:, k], shift_lo[:, k] = _dd_mul(*power, float(inv), float(inv - Fraction(float(inv))))
        hi, lo = np.zeros((count, n + 1)), np.zeros((count, n + 1))
        # window[k, m] is derivative k + m at the current knot.
        padded_hi, padded_lo = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
        window_hi = np.lib.stride_tricks.sliding_window_view(padded_hi, n + 1)
        window_lo = np.lib.stride_tricks.sliding_window_view(padded_lo, n + 1)
        padded_hi[n] = hi[0, n] = fact
        for i in range(1, count):
            fh, fl = shift_hi[i - 1, :, None], shift_lo[i - 1, :, None]
            terms, errs = _two_prod(fh, window_hi)
            errs += fh * window_lo + fl * window_hi
            sums, sum_errs = _two_sum_columns(terms)
            padded_hi[: n + 1], padded_lo[: n + 1] = _two_sum(sums, sum_errs + errs.sum(axis=0))
            padded_hi[n] += self.subset_signs[i] * fact  # n! times a sum of signs: exact
            hi[i], lo[i] = padded_hi[: n + 1], padded_lo[: n + 1]
        return np.ascontiguousarray(((hi + lo) / (np.cumprod([1.0, *range(1, n + 1)]) * self.norm_const)).T)


def _log_norm(weights: np.ndarray) -> float:
    return math.lgamma(len(weights) + 1) + float(np.log(weights).sum())


def _two_sum(a, b):
    """``a + b`` rounded, and its rounding error exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    """``a * b`` rounded, and its rounding error exactly (Dekker's TwoProduct)."""
    p = a * b
    ah, bh = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1 splits 53 bits in two
    ah, bh = ah - (ah - a), bh - (bh - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(ah, al, bh, bl):
    """Double-double product of ``ah + al`` and ``bh + bl``."""
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + (ah * bl + al * bh))


def build_sum_dist(w: WeightVector) -> WeightedUniformSumDist:
    """Enumerate and cache all subset sums for the weighted-uniform-sum CDF.

    The Taylor table's walk carries about 106 bits, so it cannot lose 1e-16
    while ``2**(degree - 106) / norm_const`` stays below that, as it does for
    every window at its default decay, and the table is built on first use.
    Past that bound the table is built here and kept if it ends the walk at
    the law's centre with ``F(S / 2) = 1/2`` within ``_SYMMETRY_TOL``.
    Otherwise, or when the normalizing constant underflows, the smallest
    weights are shed, at most 1e-6 of the mass, and a window that still
    fails is refused.
    """
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window length {n} exceeds the supported maximum {MAX_WINDOW}")
    kept, dropped = w.weights, 0.0
    while True:
        log_norm = _log_norm(kept)
        if log_norm > _LOG_TINY:
            dist = _enumerate(w, kept)
            conditioned = (len(kept) - 106) * math.log(2.0) - log_norm <= math.log(1e-16)
            if conditioned or abs(sum_cdf(dist, dist.support_end / 2) - 0.5) <= _SYMMETRY_TOL:
                return dist
        kept = np.sort(kept)
        if dropped + kept[0] > 1e-6:
            raise ValueError(
                f"decay too fast for a window of {n}: its sum-CDF table stays inaccurate "
                "after shedding at most 1e-6 of the weight mass"
            )
        dropped += kept[0]
        kept = kept[1:]


def _enumerate(w: WeightVector, kept: np.ndarray) -> WeightedUniformSumDist:
    """The distribution of the kept weights' sum, its subset sums enumerated."""
    degree, count = len(kept), 1 << len(kept)
    # Subset sums are accumulated in double-double precision, so each knot
    # is its weights' sum as a rounded value plus its exact rounding error.
    hi, lo = np.zeros(count), np.zeros(count)
    sizes = np.zeros(count, dtype=np.int64)
    for i, wi in enumerate(kept):
        bit = 1 << i
        s, err = _two_sum(hi[:bit], wi)
        hi[bit : 2 * bit], lo[bit : 2 * bit] = _two_sum(s, err + lo[:bit])
        sizes[bit : 2 * bit] = sizes[:bit] + 1
    order = np.argsort(hi, kind="stable")
    signs = np.where(sizes[order] % 2 == 0, 1.0, -1.0)
    return WeightedUniformSumDist(
        weights=w,
        subset_sums=hi[order],
        subset_lows=lo[order],
        subset_signs=signs,
        norm_const=math.factorial(degree) * math.prod(kept.tolist()),
        n=len(w),
        degree=degree,
        support_end=float(kept.sum()),
    )


def _two_sum_columns(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of a 2-D array by a pairwise tree of TwoSum additions.

    Each level adds the bottom half of the rows into the top half and keeps
    every rounding error exactly (Knuth's TwoSum); the errors are summed
    apart and returned with the sums, whose total is as accurate as a sum
    in twice the working precision.  Halves of rows are contiguous, so each
    step is a flat vector operation.  ``terms`` is overwritten.
    """
    errs = np.zeros(terms.shape[1])
    while len(terms) > 1:
        h = len(terms) // 2
        terms[:h], err = _two_sum(terms[:h], terms[len(terms) - h :])
        errs += err.sum(axis=0)
        # With an odd row count the middle row has no partner and joins
        # the next level as it is.
        terms = terms[: len(terms) - h]
    return terms[0], errs


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
    knots = _knots(dist, interior)
    t = (interior - dist.subset_sums[knots]) - dist.subset_lows[knots]
    table = dist.taylor_table
    vals = table[-1, knots]
    for row in table[-2::-1]:
        vals *= t
        vals += row[knots]
    return np.clip(vals, 0.0, 1.0, out=vals)


def _knots(dist: WeightedUniformSumDist, interior: np.ndarray) -> np.ndarray:
    """Index of the last knot below each query in (0, support_end / 2]."""
    return np.searchsorted(dist.subset_sums, interior) - 1


# ---------------------------------------------------------------------------
# PIT and scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """Scores over sliding windows, stamped at each window's newest element."""

    timestamps: np.ndarray
    as_values: np.ndarray
    threshold: float
    theta_low: np.ndarray | None = None
    theta_high: np.ndarray | None = None

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        bands = [name for name in ("theta_low", "theta_high") if getattr(self, name) is not None]
        for name in ("as_values", *bands):
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
    for block, alpha, means, sds in sample.moment_blocks(data.covariates):
        u = np.clip(_cdf_from_moments(alpha, means, sds, data.responses), PIT_EPS, 1.0 - PIT_EPS)
        q = np.lib.stride_tricks.sliding_window_view(u, length, axis=-1) @ weights
        np.abs(np.subtract(q, centre, out=q), out=spread[block])
        # The mean PIT as the first draw's plus the mean offset from it: exact where the draws agree.
        first_pit = u[0].copy() if first_pit is None else first_pit
        offsets += np.subtract(u, first_pit, out=u).sum(axis=0)
        del alpha, means, sds, u, q  # hold one block, not two, while the next one is computed
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
