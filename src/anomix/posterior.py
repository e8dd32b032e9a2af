"""Posterior sampling and fit/coverage diagnostics.

The sampler is an adaptive random-walk Metropolis scheme with one proposal
block per parameter group (experts, mixing gate, behavior gate).  Noise
standard deviations are proposed on the log scale with the matching
Jacobian term, and proposal scales adapt toward a 0.25 acceptance rate
during burn-in only.  All chains advance in lockstep, each on its own RNG
stream, and fill one draw stack (:class:`PosteriorSample`) in contiguous
chain blocks, from which the fit diagnostics read split R-hat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri

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
    _log_prior_arrays,
    _logpdf_from_moments,
    _moments_arrays,
)

__all__ = [
    "SamplerSettings",
    "PosteriorSample",
    "FitDiagnostics",
    "sample_posterior",
    "lppd",
    "psis_loo",
    "cic",
    "posterior_predictive_cdf",
    "sample_predictive",
    "fit_diagnostics",
]

# Working-set budget of one blocked pass over a draw stack, counted in
# (draws x rows x experts) elements.  It bounds the memory a posterior-wide
# evaluation adds at any row count, from a test split to a dense map grid.
BLOCK_ELEMENTS = 2**14

_STACK_FIELDS = ("expert_coeffs", "expert_sds", "mixing", "behavior")

# Random-walk step of every proposal block before burn-in adapts it.
INITIAL_SCALE = 0.1


@dataclass(frozen=True)
class SamplerSettings:
    """Chain layout and adaptation target for the random-walk sampler."""

    chains: int = 4
    iterations: int = 2000
    burn_in: int = 1000
    target_acceptance: float = 0.25
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
    rhat_max: float = math.nan

    def __post_init__(self):
        if not 0.0 <= self.cic95 <= 1.0:
            raise ValueError("cic95 must lie in [0, 1]")
        if self.psis_loo_se < 0.0 or self.cic95_se < 0.0:
            raise ValueError("standard errors must be non-negative")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def _log_target(experts, mixing, behavior, phi, y, prior: PriorSpec):
    """Unnormalised log posterior at states with any leading (chain) axes.

    ``experts`` holds each expert's mean coefficients followed by its log
    noise sd, (..., M, n + 2); the density is taken over that log-sd
    coordinate, so the log-sd prior kernel already carries the Jacobian.
    """
    coeffs, log_sds = experts[..., :-1], experts[..., -1]
    alpha, means, sds = _moments_arrays(coeffs, np.exp(log_sds), mixing, behavior, phi)
    ll = _logpdf_from_moments(alpha, means, sds, y).sum(axis=-1)
    return ll + _log_prior_arrays(coeffs, log_sds, mixing, behavior, prior)


def sample_posterior(
    data: Dataset, prior: PriorSpec, n_experts: int, settings: SamplerSettings
) -> PosteriorSample:
    """Draw from the posterior over all model parameters.

    The C chains advance in lockstep: the state is ``experts`` (C, M, n + 2),
    ``mixing`` (C, M, n + 1, last row frozen at zero) and ``behavior``
    (C, n + 1), and each block proposal is one batched log-target call.
    Chain c draws from its own generator, child c of a SeedSequence spawn
    of ``settings.seed``: first its initial state, then per iteration and
    block the block's normals and one uniform.  Its draws therefore do not
    depend on how many chains run.  Kept draws fill (C, kept, ...) arrays
    whose reshape lays the chains out as contiguous blocks of the stack.
    """
    if len(data) < 1:
        raise ValueError("at least one observation is required")
    if n_experts < 1:
        raise ValueError("at least one expert is required")
    m, na = n_experts, data.n + 1
    phi = _embed_rows(data.covariates)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(settings.seed).spawn(settings.chains)]
    state = {
        "experts": np.empty((settings.chains, m, na + 1)),
        "mixing": np.zeros((settings.chains, m, na)),
        "behavior": np.empty((settings.chains, na)),
    }
    for c, rng in enumerate(rngs):
        state["experts"][c, :, :na] = prior.mean_coeff_location + 0.1 * rng.standard_normal((m, na))
        state["experts"][c, :, na] = prior.noise_log_location + 0.1 * rng.standard_normal(m)
        state["mixing"][c, :-1] = prior.gate_coeff_location + 0.1 * rng.standard_normal((m - 1, na))
        state["behavior"][c] = prior.gate_coeff_location + 0.1 * rng.standard_normal(na)
    current = _log_target(**state, phi=phi, y=data.responses, prior=prior)
    if not np.isfinite(current).all():
        raise RuntimeError("non-finite posterior density at initialization")

    # Each block is the slice of one state array that it moves; the frozen
    # gate row is never proposed.
    blocks = [("experts", np.s_[:])] + ([("mixing", np.s_[:, :-1])] if m > 1 else []) + [("behavior", np.s_[:])]
    scales = {name: np.full(settings.chains, INITIAL_SCALE) for name, _ in blocks}
    n_kept = settings.iterations - settings.burn_in
    kept = {name: np.empty((settings.chains, n_kept, *arr.shape[1:])) for name, arr in state.items()}
    accepted = np.zeros(settings.chains, dtype=int)
    for it in range(settings.iterations):
        for name, free in blocks:
            proposal = {**state, name: state[name].copy()}
            moved = proposal[name][free]
            normals = np.stack([rng.standard_normal(moved[0].size) for rng in rngs])
            moved += (scales[name][:, None] * normals).reshape(moved.shape)
            new = _log_target(**proposal, phi=phi, y=data.responses, prior=prior)
            for c, rng in enumerate(rngs):
                log_ratio = new[c] - current[c]
                acc_prob = 1.0 if log_ratio >= 0 else math.exp(log_ratio)
                accept = rng.random() < acc_prob
                if accept:
                    state[name][c], current[c] = proposal[name][c], new[c]
                if it < settings.burn_in:
                    gamma = (it + 1) ** -0.6
                    scales[name][c] *= math.exp(gamma * (acc_prob - settings.target_acceptance))
                else:
                    accepted[c] += accept
        if it >= settings.burn_in:
            for name, arr in state.items():
                kept[name][:, it - settings.burn_in] = arr
    overall = float(np.mean(accepted / (n_kept * len(blocks))))
    if overall == 0.0:
        raise RuntimeError("no proposals were accepted after burn-in; the chains did not move")
    experts, mixing, behavior = (kept[name].reshape(-1, *kept[name].shape[2:]) for name in state)
    return PosteriorSample(
        experts[..., :-1], np.exp(experts[..., -1]), mixing, behavior, overall, settings.chains, settings.seed
    )


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


def _max_ignoring_nan(values: np.ndarray) -> float:
    """Largest value that is not NaN, or NaN when there is none."""
    values = values[~np.isnan(values)]
    return float(values.max()) if values.size else math.nan


def _rank_normal(draws: np.ndarray) -> np.ndarray:
    """Normal scores of each parameter's ranks, pooled over (chains, draws, P);
    tied draws, as repeated rejected states are, share their average rank."""
    flat = draws.reshape(-1, draws.shape[-1])
    ranks = np.empty_like(flat)
    for j, column in enumerate(flat.T):
        _, tie_group, counts = np.unique(column, return_inverse=True, return_counts=True)
        ranks[:, j] = (np.cumsum(counts) - (counts - 1) / 2)[tie_group]
    return ndtri((ranks - 0.375) / (len(flat) + 0.25)).reshape(draws.shape)


def _rhat(z: np.ndarray) -> np.ndarray:
    """R-hat of each parameter: sqrt of ((n - 1) W / n + B / n) / W."""
    n = z.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt((n - 1) / n + z.mean(axis=1).var(axis=0, ddof=1) / z.var(axis=1, ddof=1).mean(axis=0))


def _split_rhat(chains: np.ndarray) -> np.ndarray:
    """Rank-normalised split R-hat (Vehtari et al. 2021) of each parameter.

    ``chains`` is (C, N, P).  Each chain is split into its first and last
    N // 2 draws, and all halves are rank-normalised together.  A parameter
    reports the larger of the bulk value (R-hat of the normal scores) and
    the folded one (R-hat of their rank-normalised distances from the
    median score).  Folding the scores, not the raw draws, keeps both
    unchanged under a monotone transform such as sd against log sd.
    """
    half = chains.shape[1] // 2
    z = _rank_normal(np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half :]]))
    folded = _rank_normal(np.abs(z - np.median(z, axis=(0, 1))))
    return np.maximum(_rhat(z), _rhat(folded))


def _rhat_max(sample: PosteriorSample) -> float:
    """Worst split R-hat over the free parameters, chains read from the
    contiguous blocks of the stack; NaN unless they split into
    ``chain_count`` equal blocks of at least 4 draws."""
    s, c = sample.n_draws, sample.chain_count
    if s % c or s // c < 4:
        return math.nan
    groups = (sample.expert_coeffs, sample.expert_sds, sample.mixing[:, :-1], sample.behavior)
    free = np.concatenate([g.reshape(s, -1) for g in groups], axis=1)
    return _max_ignoring_nan(_split_rhat(free.reshape(c, s // c, -1)))


def fit_diagnostics(sample: PosteriorSample, data: Dataset, level: float = 0.95) -> FitDiagnostics:
    """Bundle LPPD, PSIS-LOO, coverage and the worst split R-hat into one report."""
    ll = _pointwise_loglik(sample, data)
    loo, loo_se, k_hat = _psis_loo(ll)
    coverage, coverage_se = cic(sample, data, level)
    return FitDiagnostics(
        lppd=_lppd(ll),
        psis_loo=loo,
        psis_loo_se=loo_se,
        cic95=coverage,
        cic95_se=coverage_se,
        pareto_k_max=_max_ignoring_nan(k_hat),
        rhat_max=_rhat_max(sample),
    )
