"""Posterior sampling and fit/coverage diagnostics.

The sampler is an adaptive random-walk Metropolis scheme with one proposal
block per parameter group (experts, mixing gate, behavior gate).  Noise
standard deviations are proposed on the log scale with the matching
Jacobian term, proposal scales adapt toward a 0.25 acceptance rate during
burn-in only, and chains run independently on their own RNG streams before
being concatenated into one draw stack (:class:`PosteriorSample`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from .model import (
    BehaviorGateParams,
    Dataset,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    PriorSpec,
    _cdf_from_moments,
    _draw_from_moments,
    _embed_rows,
    _laplace_logpdf,
    _logpdf_from_moments,
    _moments_arrays,
    conditional_cdf,
    fused_moments,
)

__all__ = [
    "SamplerSettings",
    "PosteriorSample",
    "FitDiagnostics",
    "sample_posterior",
    "lppd",
    "psis_loo",
    "cic",
    "credible_interval",
    "posterior_predictive_cdf",
    "sample_predictive",
    "fit_diagnostics",
]

# Working-set budget of one blocked pass over a draw stack, counted in
# (draws x rows x experts) elements.  It bounds the memory a posterior-wide
# evaluation adds at any row count, from a test split to a dense map grid.
BLOCK_ELEMENTS = 2**14

_STACK_FIELDS = ("expert_coeffs", "expert_sds", "mixing", "behavior")


@dataclass(frozen=True)
class SamplerSettings:
    """Chain layout and adaptation target for the random-walk sampler."""

    chains: int = 4
    iterations: int = 2000
    burn_in: int = 1000
    target_acceptance: float = 0.25
    initial_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("at least one chain is required")
        if self.iterations <= self.burn_in or self.burn_in < 0:
            raise ValueError("iterations must exceed burn_in and burn_in must be non-negative")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class PosteriorSample:
    """Retained draws as one stack, plus the bookkeeping to reproduce them.

    Each parameter group has a leading axis over the S draws:
    ``expert_coeffs`` (S, M, n + 1, intercept then slopes), ``expert_sds``
    (S, M), ``mixing`` (S, M, n + 1, last row zero) and ``behavior``
    (S, n + 1).  The sampler lays its chains out as contiguous, equal-length
    blocks of draws, so ``array.reshape(chain_count, -1, ...)`` restores
    the chain axis.
    """

    expert_coeffs: np.ndarray
    expert_sds: np.ndarray
    mixing: np.ndarray
    behavior: np.ndarray
    acceptance_rate: float
    chain_count: int
    seed: int

    def __post_init__(self):
        arrays = [np.ascontiguousarray(getattr(self, name), dtype=float) for name in _STACK_FIELDS]
        coeffs, sds, mixing, behavior = arrays
        s, m, na = coeffs.shape if coeffs.ndim == 3 else (0, 0, 0)
        if s * m == 0 or (sds.shape, mixing.shape, behavior.shape) != ((s, m), (s, m, na), (s, na)):
            shapes = ", ".join(str(a.shape) for a in arrays)
            raise ValueError(f"draw stack shapes {shapes} are not (S, M, n + 1), (S, M), (S, M, n + 1), (S, n + 1)")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("posterior draws must be finite")
        if not (sds > 0.0).all():
            raise ValueError("noise sds must be positive")
        if (mixing[:, -1] != 0.0).any():
            raise ValueError("last gate row must be identically zero in every draw")
        for name, arr in zip(_STACK_FIELDS, arrays):
            object.__setattr__(self, name, arr)

    @property
    def n_draws(self) -> int:
        return self.expert_sds.shape[0]

    @property
    def n_experts(self) -> int:
        return self.expert_sds.shape[1]

    def draw(self, s: int) -> ModelParams:
        """Draw ``s`` as a single parameter point."""
        experts = tuple(ExpertParams(c[0], c[1:], sd) for c, sd in zip(self.expert_coeffs[s], self.expert_sds[s]))
        return ModelParams(experts, MixingGateParams(self.mixing[s]), BehaviorGateParams(self.behavior[s]))

    @classmethod
    def from_draws(cls, draws, acceptance_rate: float, chain_count: int, seed: int) -> "PosteriorSample":
        """Stack single parameter points, in order, into a posterior sample."""
        arrays = [d.as_arrays() for d in draws]
        if not arrays:
            raise ValueError("a posterior sample needs at least one draw")
        return cls(*(np.stack(group) for group in zip(*arrays)), acceptance_rate, chain_count, seed)

    def moment_blocks(self, X):
        """Yield ``(draws, alpha, means, sds)`` over consecutive blocks of draws:
        the slice of draws a block covers and its fused moments at every row
        of ``X``, shaped (block draws, rows, M), at most ``BLOCK_ELEMENTS``
        elements (and one draw) per block."""
        phi = _embed_rows(X)
        step = max(1, BLOCK_ELEMENTS // max(1, len(phi) * self.n_experts))
        for start in range(0, self.n_draws, step):
            block = slice(start, start + step)
            arrays = (getattr(self, name)[block] for name in _STACK_FIELDS)
            yield (block, *_moments_arrays(*arrays, phi))


@dataclass(frozen=True)
class FitDiagnostics:
    lppd: float
    psis_loo: float
    psis_loo_se: float
    cic95: float
    cic95_se: float
    pareto_k_max: float

    def __post_init__(self):
        if not 0.0 <= self.cic95 <= 1.0:
            raise ValueError("cic95 must lie in [0, 1]")
        if self.psis_loo_se < 0.0 or self.cic95_se < 0.0:
            raise ValueError("standard errors must be non-negative")


# ---------------------------------------------------------------------------
# Sampler internals: flat vector <-> parameter arrays
# ---------------------------------------------------------------------------


class _ParamLayout:
    """Slices of the flat sampler state for the three proposal blocks."""

    def __init__(self, n_experts: int, n_covariates: int):
        self.m = n_experts
        self.n = n_covariates
        self.na = n_covariates + 1
        n_expert = self.m * (self.na + 1)  # mean coeffs plus one log sd each
        n_mix = (self.m - 1) * self.na
        self.expert_slice = slice(0, n_expert)
        self.mixing_slice = slice(n_expert, n_expert + n_mix)
        self.behavior_slice = slice(n_expert + n_mix, n_expert + n_mix + self.na)
        self.size = n_expert + n_mix + self.na

    def blocks(self):
        out = [("experts", self.expert_slice)]
        if self.m > 1:
            out.append(("mixing", self.mixing_slice))
        out.append(("behavior", self.behavior_slice))
        return out

    def unpack(self, vec: np.ndarray):
        """Parameter arrays of one flat state, or of a stack of them (leading axes)."""
        lead = vec.shape[:-1]
        ev = vec[..., self.expert_slice].reshape(*lead, self.m, self.na + 1)
        coeffs = ev[..., : self.na]
        log_sds = ev[..., self.na]
        mixing = np.zeros((*lead, self.m, self.na))
        if self.m > 1:
            mixing[..., :-1, :] = vec[..., self.mixing_slice].reshape(*lead, self.m - 1, self.na)
        behavior = vec[..., self.behavior_slice]
        return coeffs, log_sds, mixing, behavior


def _make_log_target(data: Dataset, prior: PriorSpec, layout: _ParamLayout):
    phi = _embed_rows(data.covariates)
    y = data.responses

    def log_target(vec: np.ndarray) -> float:
        coeffs, log_sds, mixing, behavior = layout.unpack(vec)
        sds = np.exp(log_sds)
        alpha, means, fsds = _moments_arrays(coeffs, sds, mixing, behavior, phi)
        ll = float(_logpdf_from_moments(alpha, means, fsds, y).sum()) if len(y) else 0.0
        lp = float(
            _laplace_logpdf(coeffs, prior.mean_coeff_location, prior.mean_coeff_scale).sum()
        )
        # Log-normal prior on sd expressed in the sampled log-sd coordinate:
        # the Jacobian absorbs the 1/sd factor, leaving a plain normal term.
        z = (log_sds - prior.noise_log_location) / prior.noise_log_scale
        lp += float((-np.log(prior.noise_log_scale) - 0.5 * math.log(2 * math.pi) - 0.5 * z * z).sum())
        if layout.m > 1:
            lp += float(
                _laplace_logpdf(mixing[:-1], prior.gate_coeff_location, prior.gate_coeff_scale).sum()
            )
        lp += float(
            _laplace_logpdf(behavior, prior.gate_coeff_location, prior.gate_coeff_scale).sum()
        )
        return ll + lp

    return log_target


def _run_chain(log_target, layout: _ParamLayout, settings: SamplerSettings, prior: PriorSpec, rng):
    vec = np.zeros(layout.size)
    ev = vec[layout.expert_slice].reshape(layout.m, layout.na + 1)
    ev[:, : layout.na] = prior.mean_coeff_location + 0.1 * rng.standard_normal((layout.m, layout.na))
    ev[:, layout.na] = prior.noise_log_location + 0.1 * rng.standard_normal(layout.m)
    if layout.m > 1:
        vec[layout.mixing_slice] = prior.gate_coeff_location + 0.1 * rng.standard_normal(
            (layout.m - 1) * layout.na
        )
    vec[layout.behavior_slice] = prior.gate_coeff_location + 0.1 * rng.standard_normal(layout.na)

    current = log_target(vec)
    if not math.isfinite(current):
        raise RuntimeError("non-finite posterior density at initialization")

    blocks = layout.blocks()
    scales = {name: settings.initial_scale for name, _ in blocks}
    kept = []
    accepted = 0
    proposed = 0
    for it in range(settings.iterations):
        for name, sl in blocks:
            width = sl.stop - sl.start
            prop = vec.copy()
            prop[sl] += scales[name] * rng.standard_normal(width)
            new = log_target(prop)
            log_ratio = new - current
            acc_prob = 1.0 if log_ratio >= 0 else math.exp(log_ratio)
            accept = rng.random() < acc_prob
            if accept:
                vec, current = prop, new
            if it < settings.burn_in:
                gamma = (it + 1) ** -0.6
                scales[name] *= math.exp(gamma * (acc_prob - settings.target_acceptance))
            else:
                proposed += 1
                accepted += accept
        if it >= settings.burn_in:
            kept.append(vec.copy())
    return kept, accepted / proposed


def sample_posterior(
    data: Dataset, prior: PriorSpec, n_experts: int, settings: SamplerSettings
) -> PosteriorSample:
    """Draw from the posterior over all model parameters.

    Chains are independent (seeded from ``settings.seed`` plus the chain
    index via a SeedSequence spawn) and concatenated after burn-in.  The
    frozen gate row is never part of the sampled state.
    """
    if len(data) < 1:
        raise ValueError("at least one observation is required")
    if n_experts < 1:
        raise ValueError("at least one expert is required")
    layout = _ParamLayout(n_experts, data.n)
    log_target = _make_log_target(data, prior, layout)

    streams = np.random.SeedSequence(settings.seed).spawn(settings.chains)
    vectors = []
    rates = []
    for stream in streams:
        kept, rate = _run_chain(log_target, layout, settings, prior, np.random.default_rng(stream))
        vectors.extend(kept)
        rates.append(rate)
    overall = float(np.mean(rates))
    if overall == 0.0:
        raise RuntimeError("no proposals were accepted after burn-in; the chains did not move")
    coeffs, log_sds, mixing, behavior = layout.unpack(np.array(vectors))
    return PosteriorSample(coeffs, np.exp(log_sds), mixing, behavior, overall, settings.chains, settings.seed)


# ---------------------------------------------------------------------------
# Fit diagnostics
# ---------------------------------------------------------------------------


def _pointwise_loglik(sample: PosteriorSample, data: Dataset) -> np.ndarray:
    """(draws x points) conditional log densities."""
    ll = np.empty((sample.n_draws, len(data)))
    for block, alpha, means, sds in sample.moment_blocks(data.covariates):
        ll[block] = _logpdf_from_moments(alpha, means, sds, data.responses)
    return ll


def _lppd(ll: np.ndarray) -> float:
    return float(np.sum(logsumexp(ll, axis=0) - math.log(ll.shape[0])))


def lppd(sample: PosteriorSample, data: Dataset) -> float:
    """Log pointwise predictive density: per point, log of the draw-average density."""
    return _lppd(_pointwise_loglik(sample, data))


def _fit_gpd(excesses: np.ndarray):
    """Zhang & Stephens (2009) posterior-mean estimate of the GPD shape/scale.

    The simple moment estimator cannot produce shapes above 0.5, which
    would make the heavy-tail diagnostic unreachable; this profile
    estimator is the standard choice for importance-weight smoothing.
    """
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
    # Weakly regularize the shape toward 0.5 at small tail sizes.
    k_hat = (n * k_post + 5.0) / (n + 10.0)
    return k_hat, sigma


def _gpd_quantile(p: np.ndarray, mu: float, sigma: float, k: float) -> np.ndarray:
    if abs(k) < 1e-12:
        return mu - sigma * np.log1p(-p)
    return mu + sigma / k * ((1.0 - p) ** (-k) - 1.0)


def _smooth_log_weights(lw: np.ndarray):
    """Pareto-smooth one point's shifted log importance weights in place."""
    s = len(lw)
    tail_len = int(min(math.ceil(0.2 * s), math.ceil(3.0 * math.sqrt(s))))
    if tail_len < 5:
        return lw, math.nan
    order = np.argsort(lw)
    w = np.exp(lw)
    mu = w[order[s - tail_len - 1]]
    tail_idx = order[s - tail_len :]
    excesses = w[tail_idx] - mu
    # Chains repeat rejected states, so ties with the threshold weight show
    # up as sub-ulp excesses; they would wreck the tail fit.
    positive = excesses[excesses > 1e-10 * excesses.max()]
    if len(positive) < 5 or np.ptp(positive) < 1e-12 * positive[-1]:
        return lw, math.nan
    k_hat, sigma = _fit_gpd(positive)
    if not (math.isfinite(k_hat) and math.isfinite(sigma)):
        return lw, math.nan
    probs = (np.arange(tail_len) + 0.5) / tail_len
    smoothed = np.minimum(_gpd_quantile(probs, mu, sigma, k_hat), w.max())
    out = lw.copy()
    out[tail_idx] = np.log(smoothed)
    return out, k_hat


def psis_loo(sample: PosteriorSample, data: Dataset):
    """Leave-one-out predictive fit from one posterior sample.

    Importance ratios are the reciprocal pointwise densities; the largest
    20% per point are replaced by fitted generalized-Pareto quantiles
    (truncated at the raw maximum).  Returns ``(estimate, se, pareto_k)``;
    larger estimates indicate better fit, and ``pareto_k > 0.7`` flags
    points whose weights are too heavy-tailed to trust.
    """
    return _psis_loo(_pointwise_loglik(sample, data))


def _psis_loo(ll: np.ndarray):
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
            lw, k_hat[i] = _smooth_log_weights(lw)
        elpd[i] = logsumexp(lw + ll[:, i]) - logsumexp(lw)
    estimate = float(elpd.sum())
    se = float(math.sqrt(n * elpd.var(ddof=1))) if n > 1 else 0.0
    return estimate, se, k_hat


def cic(sample: PosteriorSample, data: Dataset, level: float = 0.95):
    """Central credible interval coverage, averaged over draws and points.

    Returns ``(coverage, se)`` where the standard error is the spread of
    the per-draw coverages.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    lo = (1.0 - level) / 2.0
    hi = 1.0 - lo
    per_draw = np.empty(sample.n_draws)
    for block, alpha, means, sds in sample.moment_blocks(data.covariates):
        # y sits inside the central interval exactly when its CDF value
        # falls between the two tail probabilities (the CDF is monotone).
        u = _cdf_from_moments(alpha, means, sds, data.responses)
        per_draw[block] = np.mean((u >= lo) & (u <= hi), axis=-1)
    coverage = float(per_draw.mean())
    se = float(per_draw.std(ddof=1)) if sample.n_draws > 1 else 0.0
    return coverage, se


def credible_interval(params: ModelParams, x, level: float = 0.95):
    """Equal-tailed interval of the single-draw conditional distribution.

    Bounds come from root-finding the mixture CDF inside a bracket of
    twelve fused standard deviations around the fused means, checked to
    1e-10 on the CDF scale.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    _, means, sds = fused_moments(params, x[None, :])
    lo_b = float(means.min() - 12.0 * sds.max())
    hi_b = float(means.max() + 12.0 * sds.max())
    out = []
    for q in ((1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0):
        root = brentq(lambda v: conditional_cdf(params, x, v) - q, lo_b, hi_b, xtol=1e-13, maxiter=200)
        if abs(conditional_cdf(params, x, root) - q) > 1e-10:
            raise RuntimeError(f"credible-interval root finding did not reach 1e-10 at quantile {q}")
        out.append(float(root))
    return tuple(out)


def posterior_predictive_cdf(sample: PosteriorSample, X, y) -> np.ndarray:
    """Draw-averaged conditional CDF at each covariate/response row."""
    y = np.asarray(y, dtype=float)
    acc = np.zeros(len(y))
    for _, alpha, means, sds in sample.moment_blocks(X):
        acc += _cdf_from_moments(alpha, means, sds, y).sum(axis=0)
    return acc / sample.n_draws


def sample_predictive(sample: PosteriorSample, X, rng: np.random.Generator) -> np.ndarray:
    """(draws x points) responses sampled from the posterior predictive.

    All allocation uniforms are drawn first, then all standard normals,
    each in (draw, point) order.
    """
    shape = (sample.n_draws, len(X))
    uniforms = rng.random(shape)
    normals = rng.standard_normal(shape)
    out = np.empty(shape)
    for block, alpha, means, sds in sample.moment_blocks(X):
        out[block], _ = _draw_from_moments(alpha, means, sds, uniforms[block], normals[block])
    return out


def fit_diagnostics(sample: PosteriorSample, data: Dataset, level: float = 0.95) -> FitDiagnostics:
    """Bundle LPPD, PSIS-LOO and coverage into one report."""
    ll = _pointwise_loglik(sample, data)
    loo, loo_se, k_hat = _psis_loo(ll)
    coverage, coverage_se = cic(sample, data, level)
    finite = k_hat[np.isfinite(k_hat)]
    return FitDiagnostics(
        lppd=_lppd(ll),
        psis_loo=loo,
        psis_loo_se=loo_se,
        cic95=coverage,
        cic95_se=coverage_se,
        pareto_k_max=float(finite.max()) if len(finite) else math.nan,
    )
