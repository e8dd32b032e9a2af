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
with one batched computation each.  ``evaluate_per_window`` is the report
batched over failures but looped over validity windows, the loop
``anomix.detection.evaluate`` replaced with one pass over every window.

``sum_cdf_searchsorted`` is ``anomix.anomaly.sum_cdf`` written plainly:
each query's knot found by a binary search over the sorted subset sums and
Horner's rule with one new array per step; ``pit_rows`` is the clamped PIT
of a batch of rows under one parameter point, which the package computes
per draw block inside ``score_series``.

``log_target`` is the sampler's unnormalised log posterior at whole states,
evaluated through one fresh ``anomix.posterior._LockstepTarget``.
``FusedMomentsTarget`` is that class assembling the target out of place
from each expert's fused mean and variance through ``fuse`` and
``logpdf_from_moments``, scipy's reduction over the experts, with one prior
term per parameter (``log_prior_per_term``).

``softmax_gate``, ``logistic_gate``, ``fuse`` and ``logpdf_from_moments``
are the model's gate, fusion and mixture-density helpers written out of
place, one new array per operation, in the order the package's in-place
versions run the same operations, and ``cdf_from_moments`` is the mixture
CDF kernel so written.  ``fused_variances`` is every draw's fused variance
from those gates, the form ``PosteriorSample.moment_blocks`` yields.
``draw_from_moments_argmax`` is
``anomix.model._draw_from_moments`` picking each draw's expert as the
first bin of an ``np.cumsum`` of the mixing weights that exceeds its
uniform, where the package counts the running sums at or below it.
``sample_predictive_three_arrays`` is ``anomix.posterior.sample_predictive``
holding its uniforms, its normals and its result as three (draws x points)
arrays, where the package draws the uniforms into the result and each
block's normals as the block is reached.  It and
``posterior_predictive_cdf`` read ``stack_moments``, the moments of every
draw from one ``anomix.model._moments_arrays`` call over the whole stack,
not the package's draw blocks, which evaluate each distinct draw once.

A parameter point is one draw of the stack, the tuple ``(experts,
gate_matrix, behavior_coeffs)`` that ``anomix.model``'s row functions
take, each expert's row its mean coefficients then its log noise sd.
``ModelParams``, ``MixingGateParams`` and ``BehaviorGateParams`` build one
from experts and gate rows, ``ExpertParams`` is one expert,
``stack_draws`` stacks such points into a ``PosteriorSample``, and ``draw``
reads draw ``s`` back out of one.  ``log_likelihood`` is one point's row log
densities summed, as the sampler sums them; ``fuse_experts``
fuses experts at fixed gate outputs, ``conditional_pdf`` is one point's
density (the acceptance suite's quadrature integrand), ``generate_synthetic``
samples a dataset from one parameter point, ``lppd``, ``cic`` and
``posterior_predictive_cdf`` are a posterior's log pointwise predictive
density, interval coverage and draw-averaged CDF, and
``default_config_text`` spells out every config key.

``assert_within_4_eps`` holds a figure reduced by ``anomix.model._logsumexp``
to that kernel's accuracy contract against the same figure reduced by
scipy's ``logsumexp``.
"""

import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from anomix._special import ndtr
from anomix.anomaly import PIT_EPS, WeightedUniformSumDist
from anomix.config import SCHEMA_VERSION, PipelineConfig, _default
from anomix.detection import AlarmWindow, DetectionReport, DetectionRow, _covered
from anomix.model import (
    LOG_2PI,
    Dataset,
    PriorSpec,
    _blend,
    _cdf_from_moments,
    _draw_from_moments,
    _embed_rows,
    _fuse,
    _log_weights,
    _logistic_gate,
    _moments_arrays,
    _softmax_gate,
    conditional_cdf_rows,
    conditional_logpdf_rows,
    fused_moments,
    sample_conditional,
)
from anomix.posterior import PosteriorSample, _LockstepTarget, _coverage, _pointwise


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


def evaluate_per_window(alarms: list, failures, w_days: list, observed) -> DetectionReport:
    """The detection report from one batched pass over the failures per
    validity window, in the order of ``w_days``."""
    observed = np.sort(np.asarray(observed, dtype="datetime64[s]"))
    n = len(observed)
    spans = np.array([(a.onset, a.end) for a in alarms], dtype="datetime64").reshape(-1, 2)
    active = _covered(n, np.searchsorted(observed, spans[:, 0]), np.searchsorted(observed, spans[:, 1], "right"))
    starts = np.asarray(failures.starts, dtype="datetime64[s]")
    ends = np.asarray(failures.ends, dtype="datetime64[s]")
    in_failure = _covered(n, np.searchsorted(observed, starts), np.searchsorted(observed, ends, "right"))
    active_before = np.concatenate([[0], np.cumsum(active)])
    _, first = np.unique(observed.astype("datetime64[D]"), return_index=True)
    failure_days = np.logical_or.reduceat(in_failure, first)
    alarmed_days = np.logical_or.reduceat(active, first)

    rows = []
    for w in w_days:
        if w <= 0:
            raise ValueError("validity window length must be positive")
        width = np.timedelta64(int(w), "D").astype("timedelta64[s]")
        prev_width = np.timedelta64(int(w - 1), "D").astype("timedelta64[s]")
        lo, mid, hi = np.searchsorted(observed, np.stack([starts - width, starts - prev_width, starts]))
        tp = int(np.count_nonzero(active_before[hi] > active_before[lo]))
        fn = len(failures) - tp
        outside = ~(np.logical_or.reduceat(_covered(n, lo, hi), first) | failure_days)
        fp = int(np.count_nonzero(outside & alarmed_days))
        tn = int(np.count_nonzero(outside)) - fp

        recall = tp / (tp + fn) if (tp + fn) else 0.0
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        f1 = 2 * recall * precision / (recall + precision) if (recall + precision) else 0.0
        samples = int(np.count_nonzero(_covered(n, lo, mid)))
        rows.append(DetectionRow(int(w), tp, fn, fp, tn, samples, precision, recall, f1))
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


def pit_rows(params, X, y) -> np.ndarray:
    """Clamped conditional CDF values, one per covariate/response row."""
    u = conditional_cdf_rows(params, X, y)
    return np.clip(u, PIT_EPS, 1.0 - PIT_EPS)


def searchsorted_knots(dist: WeightedUniformSumDist, interior: np.ndarray) -> np.ndarray:
    """Index of the last knot below each query in (0, support_end)."""
    return np.searchsorted(dist.subset_sums, interior, side="left") - 1


def sum_cdf_searchsorted(dist: WeightedUniformSumDist, q) -> np.ndarray:
    """The sum-CDF at an array of queries: each query above the centre
    reflected to ``support_end - q``, knots by binary search, Horner's rule
    on each knot's Taylor column, one new array per step, and the reflected
    queries' answers taken from 1."""
    q = np.asarray(q, dtype=float)
    end = dist.support_end
    out = np.where(q >= end, 1.0, 0.0)
    inside = (q > 0.0) & (q < end)
    interior = q[inside]
    if interior.size:
        upper = interior > end / 2
        interior = np.where(upper, end - interior, interior)
        knots = searchsorted_knots(dist, interior)
        t = (interior - dist.subset_sums[knots]) - dist.subset_lows[knots]
        table = dist.taylor_table
        vals = table[-1, knots]
        for row in table[-2::-1]:
            vals = vals * t + row[knots]
        vals = np.clip(vals, 0.0, 1.0)
        out[inside] = np.where(upper, 1.0 - vals, vals)
    return out


def log_target(experts, mixing, behavior, phi, y, prior: PriorSpec, target=_LockstepTarget):
    """Unnormalised log posterior at states with any leading (chain) axes, in
    log-sd coordinates (see ``anomix.posterior._experts_part``), through a
    fresh ``target``."""
    return target({"experts": experts, "mixing": mixing, "behavior": behavior}, phi, y, prior).current


def log_prior_per_term(spec: PriorSpec, *, coeffs=None, log_sds=None, gate_matrix=None, behavior_coeffs=None):
    """``anomix.model._log_prior_arrays`` with one log density term per
    parameter, each group's terms summed on their own and the sums added in
    the package's order."""
    def laplace(values, loc, scale):
        return -np.log(2.0 * scale) - np.abs(values - loc) / scale

    total = 0.0
    if coeffs is not None:
        values = laplace(coeffs, spec.mean_coeff_location, spec.mean_coeff_scale)
        total += np.add.reduce(values.reshape(*values.shape[:-2], -1), axis=-1)
    if log_sds is not None:
        z = (log_sds - spec.noise_log_location) / spec.noise_log_scale
        total += np.add.reduce(-np.log(spec.noise_log_scale) - 0.5 * LOG_2PI - 0.5 * z * z, axis=-1)
    if gate_matrix is not None:
        values = laplace(gate_matrix[..., :-1, :], spec.gate_coeff_location, spec.gate_coeff_scale)
        total += np.add.reduce(values.reshape(*values.shape[:-2], -1), axis=-1)
    if behavior_coeffs is not None:
        total += np.add.reduce(laplace(behavior_coeffs, spec.gate_coeff_location, spec.gate_coeff_scale), axis=-1)
    return total


class FusedMomentsTarget:
    """``anomix.posterior._LockstepTarget`` assembling the log target out of
    place: each proposal fuses every expert toward the blend (``fuse``) and
    reduces the residuals and fused variances over the experts with scipy
    (``logpdf_from_moments``), and each group's prior is one term per
    parameter (``log_prior_per_term``).  It caches each group's part and the
    blend's mean and variance, and has the same interface, so a test can run
    the sampler through it."""

    def __init__(self, state, phi, y, prior: PriorSpec):
        self.state, self._phi, self._y, self._prior = state, phi, y[..., None, :], prior
        self.parts = {name: self._part(name, state[name]) for name in ("experts", "mixing", "behavior")}
        self.blend = self._blend(self.parts["experts"], self.parts["mixing"])
        self.current = self._total(*self.parts.values(), self.blend)

    def _part(self, name, value):
        phi, prior = self._phi, self._prior
        if name == "experts":
            coeffs, log_sds = value[..., :-1], value[..., -1]
            variances = np.exp(log_sds)
            prior_term = log_prior_per_term(prior, coeffs=coeffs, log_sds=log_sds)
            return coeffs @ phi.swapaxes(-1, -2), np.square(variances, out=variances), prior_term
        if name == "mixing":
            alpha = _softmax_gate(value, phi)
            return alpha, _log_weights(alpha), log_prior_per_term(prior, gate_matrix=value)
        beta = _logistic_gate(value, phi)
        return beta, 1.0 - beta, log_prior_per_term(prior, behavior_coeffs=value)

    @staticmethod
    def _blend(experts, mixing):
        (means, variances, _), (alpha, _, _) = experts, mixing
        return _blend(alpha, means, variances)

    def _total(self, experts, mixing, behavior, blend):
        means, variances, experts_prior = experts
        _, log_alpha, mixing_prior = mixing
        beta, rest, behavior_prior = behavior
        fused_means, fused_var = fuse(beta, rest, means, variances, blend)
        ll = logpdf_from_moments(log_alpha, fused_means - self._y, fused_var).sum(axis=-1)
        ll += experts_prior + mixing_prior + (behavior_prior if means.shape[-2] > 1 else 0.0)
        return ll

    def evaluate(self, name, moved):
        fresh = self._part(name, moved)
        experts, mixing, behavior = (fresh if key == name else part for key, part in self.parts.items())
        if name == "behavior":
            return self._total(experts, mixing, behavior, self.blend), fresh
        blend = self._blend(experts, mixing)
        return self._total(experts, mixing, behavior, blend), fresh + blend

    def accept(self, name, chains, moved, fresh, new):
        cache = (self.state[name], self.current, *self.parts[name], *self.blend)
        for c in chains:
            for cached, value in zip(cache, (moved, new, *fresh)):
                cached[c] = value[c]


def softmax_gate(gate_matrix, phi):
    logits = gate_matrix @ np.swapaxes(phi, -1, -2)
    logits = logits - logits.max(axis=-2, keepdims=True)
    alpha = np.exp(logits)
    return alpha / alpha.sum(axis=-2, keepdims=True)


def logistic_gate(behavior_coeffs, phi):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-(behavior_coeffs[..., None, :] @ np.swapaxes(phi, -1, -2))))


def fuse(beta, rest, means, variances, blend):
    blend_mean, blend_var = blend
    return beta * means + rest * blend_mean, beta * variances[..., None] + rest * blend_var


def logpdf_from_moments(log_alpha, residuals, variances):
    """Mixture log density (..., rows) from residuals and variances (..., M, rows), reduced over the experts by scipy."""
    comp = log_alpha - 0.5 * (residuals * residuals / variances + np.log(variances))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return logsumexp(comp, axis=-2)


def draw_from_moments_argmax(alpha, means, variances, uniforms, normals):
    cum = np.cumsum(alpha, axis=-2)
    cum[..., -1, :] = 1.0  # rounding must not leave a draw above the last bin
    z = (uniforms[..., None, :] < cum).argmax(axis=-2)
    pick = z[..., None, :]
    mean = np.take_along_axis(means, pick, axis=-2)[..., 0, :]
    sd = np.sqrt(np.take_along_axis(variances, pick, axis=-2)[..., 0, :])
    return mean + sd * normals, z


def cdf_from_moments(alpha, means, variances, y):
    """``anomix.model._cdf_from_moments`` out of place: the sds are a new array, not taken over ``variances``."""
    return (alpha * ndtr((y[..., None, :] - means) / np.sqrt(variances))).sum(axis=-2)


def fused_variances(sample, X) -> np.ndarray:
    """Every draw's fused variances (draws, M, rows) at the rows of ``X``, ``beta * s_m**2 + (1 - beta) *
    sum_j alpha_j s_j**2`` for noise sds ``s``, out of place from the gates' oracles and ``np.sum``."""
    phi = _embed_rows(X)
    alpha, beta = softmax_gate(sample.mixing, phi), logistic_gate(sample.behavior, phi)
    noise_var = np.exp(sample.experts[..., -1])[..., None] ** 2
    return beta * noise_var + (1.0 - beta) * np.sum(alpha * noise_var, axis=-2, keepdims=True)


def stack_moments(sample, X) -> tuple:
    """``(alpha, means, variances)`` of every draw of ``sample`` at the rows of ``X``, each (draws, M, rows),
    from one ``_moments_arrays`` call over the whole stack: no draw blocks, no repeats skipped."""
    return _moments_arrays(sample.experts, sample.mixing, sample.behavior, _embed_rows(X))


def sample_predictive_three_arrays(sample, X, rng: np.random.Generator) -> np.ndarray:
    shape = (sample.n_draws, len(X))
    uniforms = rng.random(shape)
    normals = rng.standard_normal(shape)
    return _draw_from_moments(*stack_moments(sample, X), uniforms, normals, np.arange(sample.n_draws))[0]


class ExpertParams(NamedTuple):
    """One affine Gaussian expert: mean ``intercept + x @ slopes``, sd ``noise_sd``."""

    intercept: float
    slopes: np.ndarray
    noise_sd: float


def assert_within_4_eps(got, want):
    """Same shape, equal where ``want`` is not finite (NaN where it is NaN), and within
    ``4 * eps * max(1, |want|)`` of ``want`` everywhere else."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    g, w = got[finite], want[finite]
    assert np.all(np.abs(g - w) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(w)))


def MixingGateParams(matrix) -> np.ndarray:
    """Softmax gate rows, one per expert, the last one zero."""
    return np.asarray(matrix, dtype=float)


def BehaviorGateParams(coeffs) -> np.ndarray:
    return np.asarray(coeffs, dtype=float)


def ModelParams(experts, mixing, behavior) -> tuple:
    """The draw ``(experts, gate_matrix, behavior_coeffs)`` of experts and both gates."""
    rows = [np.concatenate(([e.intercept], e.slopes, [math.log(e.noise_sd)])) for e in experts]
    return np.array(rows, dtype=float), mixing, behavior


def stack_draws(draws, acceptance_rate: float, chain_count: int, seed: int) -> PosteriorSample:
    """Stack draws ``(experts, gate_matrix, behavior_coeffs)``, in order, into a posterior sample."""
    draws = list(draws)
    if not draws:
        raise ValueError("a posterior sample needs at least one draw")
    return PosteriorSample(*(np.stack(group) for group in zip(*draws)), acceptance_rate, chain_count, seed)


def draw(sample, s: int) -> tuple:
    """Draw ``s`` of a ``PosteriorSample`` as one parameter point."""
    return sample.experts[s], sample.mixing[s], sample.behavior[s]


def log_likelihood(params, data) -> float:
    return conditional_logpdf_rows(params, data.covariates, data.responses).sum()


def fuse_experts(experts, alpha, beta: float) -> list:
    """Fused experts at fixed gate outputs, mean coefficients taking the place
    of means in ``anomix.model._fuse``; ``beta == 1`` returns the experts unrounded."""
    experts = list(experts)
    if beta == 1.0:
        return experts
    rows, _, _ = ModelParams(experts, None, None)
    coeffs, variances = rows[:, :-1], np.exp(rows[:, -1]) ** 2
    alpha = np.asarray(alpha, dtype=float)[:, None]
    fused, variances = _fuse(beta, 1.0 - beta, coeffs, variances, _blend(alpha, coeffs, variances))
    return [ExpertParams(c[0], c[1:], sd) for c, sd in zip(fused, np.sqrt(variances[:, 0]))]


def conditional_pdf(params, x, y: float) -> float:
    """Density of response ``y`` at the covariate vector ``x``."""
    return math.exp(conditional_logpdf_rows(params, np.asarray(x, dtype=float)[None, :], [y])[0])


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator recipe: ground-truth parameter point, covariate law, optional fault."""

    params: tuple
    covariate_law: list  # per dimension: ("uniform", lo, hi) or ("gaussian", mean, sd)
    n_samples: int
    fault_onset: int | None = None
    shift_sds: float = 0.0
    drift_per_sample: float = 0.0
    start: str = "2024-01-01T00:00:00"
    cadence_seconds: int = 3600


def generate_synthetic(spec: SyntheticSpec, seed: int):
    """Sample a dataset from the ground-truth conditional law.

    Responses follow the gate-allocated fused Gaussians; after the fault
    onset each response is shifted by ``shift_sds`` (plus accumulated
    drift) times the sampled component's fused standard deviation.
    Returns ``(dataset, expert_indices)``.
    """
    rng = np.random.default_rng(seed)
    draw_column = {"uniform": rng.uniform, "gaussian": rng.normal}
    x = np.column_stack([draw_column[kind](a, b, size=spec.n_samples) for kind, a, b in spec.covariate_law])
    y, z = sample_conditional(spec.params, x, rng)
    if spec.fault_onset is not None:
        _, _, variances = fused_moments(spec.params, x)
        idx = np.arange(spec.n_samples)
        magnitude = spec.shift_sds + spec.drift_per_sample * (idx - spec.fault_onset)
        y = y + (idx >= spec.fault_onset) * magnitude * np.sqrt(variances[idx, z])
    ts = np.datetime64(spec.start, "s") + np.arange(spec.n_samples) * np.timedelta64(spec.cadence_seconds, "s")
    return Dataset(x, y, ts), z


def lppd(sample, data) -> float:
    """Log pointwise predictive density: per point, log of the draw-average
    density; ``fit_diagnostics``' ``lppd``, reduced here over the whole matrix by scipy."""
    ll = _pointwise(sample, data)
    return float(np.sum(logsumexp(ll, axis=0) - math.log(len(ll))))


def cic(sample, data, level: float = 0.95):
    """Central credible interval coverage averaged over draws and points, and
    the spread of the per-draw coverages: ``fit_diagnostics``' ``cic95`` and
    ``cic95_se`` at any level."""
    return _coverage(sample, data, level)


def posterior_predictive_cdf(sample, X, y) -> np.ndarray:
    """Draw-averaged conditional CDF at each covariate/response row."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    # The whole stack's moments, 256 rows at a time, so that 4000 draws x 2000 rows stay small.
    rows = [slice(start, start + 256) for start in range(0, len(y), 256)]
    return np.concatenate([_cdf_from_moments(*stack_moments(sample, X[r]), y[r]).mean(axis=0) for r in rows])


def default_config_text(**overrides) -> str:
    """Config text with every key spelled out."""
    values = {"schema_version": SCHEMA_VERSION, "indices": ["hi_a", "hi_b"], **overrides}
    lines = []
    for f in fields(PipelineConfig):
        value = values.get(f.name, _default(f))
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
