"""Posterior sampling and fit/coverage diagnostics.

The sampler is an adaptive random-walk Metropolis scheme with one proposal
block per parameter group (experts, mixing gate, behavior gate); with one
expert only the experts are proposed, as neither gate can move the
likelihood.  Noise sds are proposed on the log scale with the matching
Jacobian term, and proposal scales adapt toward a 0.25 acceptance rate
during burn-in only.  All chains, of one dataset or of several fitted
together, advance in lockstep, each on its own RNG stream, and fill one draw
stack per dataset (:class:`PosteriorSample`, the kept state groups as they
are) in contiguous chain blocks, from which the fit diagnostics read split
R-hat.  The log target is cached per chain in one part per group, next to
the experts' blend, so a proposal recomputes only what its group moves: a
behavior-gate one reuses the blend.  The likelihood fuses the experts and
reduces them with the mixture log-density kernel that the diagnostics use.
Posterior bands (score, predictive and coverage intervals) take their
quantiles from one in-place sort of the draw axis, equal to ``np.quantile``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .model import (
    Dataset,
    PriorSpec,
    _blend,
    _cdf_from_moments,
    _draw_from_moments,
    _embed_rows,
    _fuse,
    _log_prior_arrays,
    _log_weights,
    _logistic_gate,
    _logpdf_from_moments,
    _logsumexp,
    _moments_arrays,
    _softmax_gate,
)

__all__ = [
    "SamplerSettings",
    "PosteriorSample",
    "FitDiagnostics",
    "sample_posterior",
    "sample_posteriors",
    "psis_loo",
    "sample_predictive",
    "fit_diagnostics",
]

# Working-set budget of one blocked pass over a draw stack, counted in
# (draws x rows x experts) elements, or (draws x points) weights in PSIS-LOO
# and LPPD, which take at least two points a block, or (grid rows x tail x
# points) terms of such a block's Pareto profile grid.  A posterior-wide pass
# (fit diagnostics, a score band, a predictive band or coverage grid) holds
# one (draws x points) array, its result or the one it reduces, plus block
# temporaries of about this many elements each, at any row count, from a
# test split to a dense map grid.
BLOCK_ELEMENTS = 2**14

# Pareto k-hat above which a PSIS-LOO estimate is unreliable (Vehtari, Gelman & Gabry 2017).
PARETO_K_BOUND = 0.7

# The sampler's state groups, the draw stack's arrays and the archive's members, in that order.
_STACK_FIELDS = ("experts", "mixing", "behavior")

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
        for name in ("chains", "iterations", "burn_in", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.chains < 1:
            raise ValueError("at least one chain is required")
        if self.iterations <= self.burn_in or self.burn_in < 0:
            raise ValueError("iterations must exceed burn_in and burn_in must be non-negative")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class PosteriorSample:
    """Retained draws as one stack, plus the bookkeeping to reproduce them.

    The sampler's kept state groups, each with a leading axis over the S
    draws: ``experts`` (S, M, n + 2: intercept, slopes, then log noise sd),
    ``mixing`` (S, M, n + 1, last row zero) and ``behavior`` (S, n + 1).
    The chains are contiguous, equal-length blocks of draws, so
    ``array.reshape(chain_count, -1, ...)`` restores the chain axis; a
    ``chain_count`` that does not divide the draw count is refused.  The
    arrays are read-only views: samples may share them, and the arrays a
    caller passed in stay writeable.
    """

    experts: np.ndarray
    mixing: np.ndarray
    behavior: np.ndarray
    acceptance_rate: float
    chain_count: int
    seed: int

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=float, order="C").view() for name in _STACK_FIELDS]
        experts, mixing, behavior = arrays
        s, m, na = mixing.shape if mixing.ndim == 3 else (0, 0, 0)
        if s * m == 0 or (experts.shape, behavior.shape) != ((s, m, na + 1), (s, na)):
            shapes = ", ".join(str(a.shape) for a in arrays)
            raise ValueError(f"draw stack shapes {shapes} are not (S, M, n + 2), (S, M, n + 1), (S, n + 1)")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("posterior draws must be finite")
        if (mixing[:, -1] != 0.0).any():
            raise ValueError("last gate row must be identically zero in every draw")
        if not 0.0 <= self.acceptance_rate <= 1.0:  # NaN fails too
            raise ValueError(f"acceptance rate {self.acceptance_rate} does not lie in [0, 1]")
        for name, value, least in (("chain_count", self.chain_count, 1), ("seed", self.seed, 0)):
            if not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if s % self.chain_count:
            raise ValueError(f"{s} draws do not split into {self.chain_count} chains of equal length")
        for name, arr in zip(_STACK_FIELDS, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_draws(self) -> int:
        return self.experts.shape[0]

    @property
    def n_experts(self) -> int:
        return self.experts.shape[1]

    @functools.cached_property
    def repeats(self) -> np.ndarray:
        """Whether each draw repeats the one before it bit for bit, as a step every block rejects
        leaves it: (S,) booleans, the first False.  Parameters compare as bit patterns, one column
        at a time, so -0.0 and 0.0 differ."""
        same = np.arange(self.n_draws) > 0
        for name in _STACK_FIELDS:
            for column in getattr(self, name).view(np.uint64).reshape(self.n_draws, -1).T:
                same[1:] &= column[1:] == column[:-1]
        return same

    def moment_blocks(self, X):
        """Yield ``(draws, inverse, alpha, means, variances)`` over consecutive blocks of draws: the
        slice of draws a block covers and the mixing weights, fused means and fused variances at every
        row of ``X`` of its distinct draws, shaped (distinct draws, M, rows), at most ``BLOCK_ELEMENTS``
        elements (and one draw) per block.  The variances are the form the mixture density reads; the CDF
        and draw kernels take their square roots.  ``inverse`` maps each draw of the block to its row of
        the moments: a draw that :attr:`repeats` its predecessor shares that one's row, so
        ``alpha[inverse]`` is every draw's.  Repeats are found within a block, whose first draw is always
        evaluated, so that its distinct draws hold the same set of values as the block, and a decision a
        consumer makes once per block (``model._softmax_gate``'s check) falls as it would over every draw."""
        phi = _embed_rows(X)
        step = max(1, BLOCK_ELEMENTS // max(1, len(phi) * self.n_experts))
        for start in range(0, self.n_draws, step):
            block = slice(start, start + step)
            fresh = ~self.repeats[block]
            fresh[0] = True
            rows = start + np.flatnonzero(fresh)
            arrays = (getattr(self, name).take(rows, axis=0) for name in _STACK_FIELDS)
            yield (block, fresh.cumsum() - 1, *_moments_arrays(*arrays, phi))


@dataclass(frozen=True)
class FitDiagnostics:
    lppd: float
    psis_loo: float
    psis_loo_se: float
    cic95: float
    cic95_se: float
    pareto_k_max: float
    rhat_max: float

    def __post_init__(self):
        if not 0.0 <= self.cic95 <= 1.0:
            raise ValueError("cic95 must lie in [0, 1]")
        if self.psis_loo_se < 0.0 or self.cic95_se < 0.0:
            raise ValueError("standard errors must be non-negative")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def _experts_part(experts, phi, prior: PriorSpec):
    """Expert means (S, M, rows), noise variances (S, M) and the group's prior sum.

    ``experts`` holds each expert's mean coefficients followed by its log
    noise sd, (S, M, n + 2); the density is taken over that log-sd
    coordinate, so the log-sd prior kernel already carries the Jacobian.
    """
    coeffs, log_sds = experts[..., :-1], experts[..., -1]
    means, variances = coeffs @ phi.swapaxes(-1, -2), np.exp(log_sds)
    return means, np.square(variances, out=variances), _log_prior_arrays(prior, coeffs=coeffs, log_sds=log_sds)


def _mixing_part(mixing, phi, prior: PriorSpec):
    """Mixing weights and their ``model._log_weights`` (S, M, rows), and the mixing prior sum."""
    alpha = _softmax_gate(mixing, phi)
    return alpha, _log_weights(alpha), _log_prior_arrays(prior, gate_matrix=mixing)


def _behavior_part(behavior, phi, prior: PriorSpec):
    """Behavior gate output ``beta`` and ``1 - beta`` (S, 1, rows), and the behavior prior sum."""
    beta = _logistic_gate(behavior, phi)
    return beta, 1.0 - beta, _log_prior_arrays(prior, behavior_coeffs=behavior)


_PARTS = dict(zip(_STACK_FIELDS, (_experts_part, _mixing_part, _behavior_part)))


def _total(experts, mixing, behavior, blend, y):
    """Log target (S,) from the three parts, the experts' ``blend`` and the responses ``y`` (S, 1, rows): the
    likelihood sums over the rows the mixture log density of the fused experts (``model._fuse``).  The prior
    sums add as experts, mixing, behavior, the last left out at M = 1, where the behavior gate cannot move
    the likelihood and is never proposed: the target does not depend on the gate prior."""
    means, variances, experts_prior = experts
    _, log_alpha, mixing_prior = mixing
    beta, rest, behavior_prior = behavior
    fused, fused_var = _fuse(beta, rest, means, variances, blend)
    fused -= y
    prior = experts_prior + mixing_prior + (behavior_prior if variances.shape[-1] > 1 else 0.0)
    return np.add.reduce(_logpdf_from_moments(log_alpha, fused, fused_var), axis=-1) + prior


class _LockstepTarget:
    """The slots' states, the cached part of the log target for each state group, the experts' blend
    mean and variance, the responses and the current log target (S,).  A proposal recomputes what its
    group can move: its part, and the blend unless it is the behavior gate.  Accepting copies the moved
    state and those arrays chain by chain, so the cache always equals a fresh evaluation."""

    def __init__(self, state, phi, y, prior: PriorSpec):
        self.state, self._phi, self._y, self._prior = state, phi, y[..., None, :], prior
        self.parts = {name: part(state[name], phi, prior) for name, part in _PARTS.items()}
        self.blend = _blend(self.parts["mixing"][0], *self.parts["experts"][:2])
        self.current = _total(*self.parts.values(), self.blend, self._y)

    def evaluate(self, name, moved):
        """Log target with group ``name`` at ``moved``, and the recomputed arrays: its part, then any blend."""
        fresh = _PARTS[name](moved, self._phi, self._prior)
        parts = {**self.parts, name: fresh}
        if name == "behavior":
            return _total(*parts.values(), self.blend, self._y), fresh
        blend = _blend(parts["mixing"][0], *parts["experts"][:2])
        return _total(*parts.values(), blend, self._y), fresh + blend

    def accept(self, name, chains, moved, fresh, new):
        """Take ``moved``, the ``fresh`` arrays and log target ``new`` on the slots listed in ``chains``."""
        # After a behavior move ``fresh`` ends with its part, so zip stops before the blend.
        cache = (self.state[name], self.current, *self.parts[name], *self.blend)
        # Row by row: a quarter of the chains accept on average, and a masked copy walks every row.
        for c in chains:
            for cached, value in zip(cache, (moved, new, *fresh)):
                cached[c] = value[c]


# Each block is a group of the draw stack and the slice of its state array that the sampler moves.  The
# frozen gate row is never proposed, nor at M = 1 the behavior gate: it cannot move the likelihood, so it
# stays at the prior location.  The mixing gate of one expert has no free row, so M = 1 moves the experts only.
_BLOCKS = tuple(zip(_STACK_FIELDS, (np.s_[:], np.s_[:, :-1], np.s_[:])))


def _moved_blocks(n_experts: int) -> tuple:
    return _BLOCKS if n_experts > 1 else _BLOCKS[:1]


def _fitted_prior(prior: PriorSpec, n_experts: int) -> PriorSpec:
    """The prior as the fit of ``n_experts`` experts reads it, which ``selection.run_trial`` keys its
    fits by.  At M = 1 the behavior gate is never proposed and ``_total`` leaves its prior term out,
    and the mixing gate has no free row, so the gate scale cannot change the fit: it is set to its
    default.  The gate location stays, as the frozen gate sits there in the draws."""
    return replace(prior, gate_coeff_scale=PriorSpec.gate_coeff_scale) if n_experts == 1 else prior


def sample_posterior(data: Dataset, prior: PriorSpec, n_experts: int, settings: SamplerSettings) -> PosteriorSample:
    """Draw from the posterior over all model parameters: :func:`sample_posteriors` of one dataset."""
    return sample_posteriors([data], prior, n_experts, settings)[0]


# One error state for the whole run: huge responses overflow (the check at initialization reports
# them), and a mixing weight that underflows to 0 has log -inf.
@np.errstate(over="ignore", divide="ignore")
def sample_posteriors(datasets, prior: PriorSpec, n_experts: int, settings: SamplerSettings) -> list:
    """One posterior per dataset, all fitted in one lockstep run.

    The datasets must share their row and covariate counts.  Slot i*C + c
    holds chain c of dataset i, so the state is ``experts`` (S, M, n + 2),
    ``mixing`` (S, M, n + 1, last row frozen at zero) and ``behavior``
    (S, n + 1) over S = D*C slots.  Each block proposal evaluates the log
    target of all slots in one batch, recomputing only what the moved group
    can change.  Slot i*C + c draws from child c of a SeedSequence spawn of
    ``settings.seed + i``: its initial state, then per iteration and block
    its normals and one uniform.  Dataset i therefore gets the draws of a
    lone fit seeded ``settings.seed + i``, whatever the chain count.
    """
    datasets = list(datasets)
    if not datasets or len(datasets[0]) < 1:
        raise ValueError("at least one dataset of at least one observation is required")
    if any((len(d), d.n) != (len(datasets[0]), datasets[0].n) for d in datasets):
        raise ValueError("jointly fitted datasets must share their row and covariate counts")
    if n_experts < 1:
        raise ValueError("at least one expert is required")
    chains, seeds = settings.chains, [settings.seed + i for i in range(len(datasets))]
    slots, m, na = len(datasets) * chains, n_experts, datasets[0].n + 1
    rngs = [np.random.default_rng(s) for seed in seeds for s in np.random.SeedSequence(seed).spawn(chains)]
    blocks = _moved_blocks(m)
    experts, behavior = np.empty((slots, m, na + 1)), np.full((slots, na), prior.gate_coeff_location)
    state = dict(zip(_STACK_FIELDS, (experts, np.zeros((slots, m, na)), behavior)))
    for c, rng in enumerate(rngs):
        experts[c, :, :na] = prior.mean_coeff_location + 0.1 * rng.standard_normal((m, na))
        experts[c, :, na] = prior.noise_log_location + 0.1 * rng.standard_normal(m)
        for name, free in blocks[1:]:
            gate = state[name][free]
            gate[c] = prior.gate_coeff_location + 0.1 * rng.standard_normal(gate.shape[1:])
    phi = np.repeat([_embed_rows(d.covariates) for d in datasets], chains, axis=0)
    y = np.repeat([d.responses for d in datasets], chains, axis=0)
    target = _LockstepTarget(state, phi, y, prior)
    prefix = "dataset {}: " if len(datasets) > 1 else ""
    for i, finite in enumerate(np.isfinite(target.current).reshape(-1, chains).all(axis=1)):
        if not finite:
            raise RuntimeError(f"{prefix.format(i)}non-finite posterior density at initialization")

    scales = {name: np.full(slots, INITIAL_SCALE) for name, _ in blocks}
    # Chain c draws into the free entries of its normals (the frozen gate row stays 0); step_scales view scales.
    normals = {name: np.zeros(state[name].shape) for name, _ in blocks}
    chain_normals = {name: list(normals[name][free]) for name, free in blocks}
    step_scales = {name: scales[name].reshape(-1, *(1,) * (state[name].ndim - 1)) for name, _ in blocks}
    n_kept = settings.iterations - settings.burn_in
    kept = {name: np.empty((slots, n_kept, *arr.shape[1:])) for name, arr in state.items()}
    accepted = [0] * slots
    for it in range(settings.iterations):
        adapting, gamma = it < settings.burn_in, (it + 1) ** -0.6
        for name, _ in blocks:
            for rng, row in zip(rngs, chain_normals[name]):
                rng.standard_normal(out=row)
            moved = step_scales[name] * normals[name]
            moved += state[name]
            new, part = target.evaluate(name, moved)
            taken = []
            for c, (rng, log_ratio) in enumerate(zip(rngs, (new - target.current).tolist())):
                acc_prob = 1.0 if log_ratio >= 0 else math.exp(log_ratio)
                if rng.random() < acc_prob:
                    taken.append(c)
                if adapting:
                    scales[name][c] *= math.exp(gamma * (acc_prob - settings.target_acceptance))
            if taken:
                target.accept(name, taken, moved, part, new)
                if not adapting:
                    for c in taken:
                        accepted[c] += 1
        if not adapting:
            for name, arr in state.items():
                kept[name][:, it - settings.burn_in] = arr
    rates = (np.array(accepted) / (n_kept * len(blocks))).reshape(-1, chains)
    stacks = [arr.reshape(len(datasets), -1, *arr.shape[2:]) for arr in kept.values()]
    samples = []
    for i, seed in enumerate(seeds):
        overall = float(np.mean(rates[i]))
        if overall == 0.0:
            raise RuntimeError(f"{prefix.format(i)}no proposals were accepted after burn-in; the chains did not move")
        samples.append(PosteriorSample(*(stack[i] for stack in stacks), overall, chains, seed))
    return samples


# ---------------------------------------------------------------------------
# Fit diagnostics
# ---------------------------------------------------------------------------


@np.errstate(divide="ignore")
def _pointwise(sample: PosteriorSample, data: Dataset) -> np.ndarray:
    """The (draws x points) conditional log densities at ``data``, from one pass over the fused moments."""
    ll = np.empty((sample.n_draws, len(data)))
    for block, inverse, alpha, means, variances in sample.moment_blocks(data.covariates):
        means -= data.responses
        ll[block] = _logpdf_from_moments(_log_weights(alpha), means, variances)[inverse]
    return ll


def _coverage(sample: PosteriorSample, data: Dataset, level: float) -> tuple[float, float]:
    """The central ``level`` interval coverage of ``data``'s responses, averaged over draws and
    points, and its per-draw spread, from one pass over the fused moments that keeps only the
    per-draw hit rates."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    lo = (1.0 - level) / 2.0
    per_draw = np.empty(sample.n_draws)
    for block, inverse, alpha, means, variances in sample.moment_blocks(data.covariates):
        # y sits inside the central interval exactly when its CDF value
        # falls between the two tail probabilities (the CDF is monotone).
        u = _cdf_from_moments(alpha, means, variances, data.responses)[inverse]
        per_draw[block] = np.mean((u >= lo) & (u <= 1.0 - lo), axis=-1)
    return float(per_draw.mean()), float(per_draw.std(ddof=1)) if sample.n_draws > 1 else 0.0


def _point_blocks(n_draws: int, n_points: int) -> list:
    """Consecutive slices of the points, each at most ``BLOCK_ELEMENTS // n_draws`` points wide and at
    least two: a trailing single point joins the block before it.  NumPy reduces one column over the
    draws by pairwise summation and two or more row by row, as it does the whole matrix, so every
    point's figures are those of a reduction over the whole matrix."""
    step = max(2, BLOCK_ELEMENTS // n_draws)
    starts = list(range(0, n_points, step))
    if len(starts) > 1 and n_points - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n_points])]


def psis_loo(sample: PosteriorSample, data: Dataset):
    """Leave-one-out predictive fit from one posterior sample.

    Importance ratios are the reciprocal pointwise densities.  Per point,
    the largest ``min(ceil(0.2 S), ceil(3 sqrt(S)))`` of its S ratios (85
    of 800) are replaced by fitted generalized-Pareto quantiles (truncated
    at the raw maximum).  Returns ``(estimate, se, pareto_k)``; larger
    estimates indicate better fit, and ``pareto_k > PARETO_K_BOUND`` flags points
    whose weights are too heavy-tailed to trust.
    """
    return _psis_loo(_pointwise(sample, data))[:3]


def _psis_loo(ll: np.ndarray):
    """``(estimate, se, pareto_k, lppd)`` from one walk over the point blocks of ``ll``."""
    s, n = ll.shape
    smooth = s >= 100
    if not smooth:
        warnings.warn(f"only {s} draws available; PSIS smoothing disabled, using raw importance weights", RuntimeWarning)
    tail_len = int(min(math.ceil(0.2 * s), math.ceil(3.0 * math.sqrt(s))))
    elpd, lppd = np.empty(n), np.empty(n)
    k_hat = np.full(n, math.nan)
    for points in _point_blocks(s, n):
        lppd[points] = _logsumexp(ll[:, points], axis=0)
        lw = -ll[:, points]
        lw -= lw.max(axis=0)
        if smooth:  # S >= 100 gives a tail of at least 20
            k_hat[points] = _pareto_smooth(lw, tail_len)
        elpd[points] = _logsumexp(lw + ll[:, points], axis=0) - _logsumexp(lw, axis=0)
    estimate = float(elpd.sum())
    se = float(math.sqrt(n * elpd.var(ddof=1))) if n > 1 else 0.0
    return estimate, se, k_hat, float(np.sum(lppd - math.log(s)))


def _pareto_smooth(lw: np.ndarray, tail_len: int) -> np.ndarray:
    """Pareto-smooth in place the top ``tail_len`` of each column of shifted
    log weights (draws, points), whose maxima are 0; returns each column's
    k-hat, NaN where its weights are left as they are.

    Each tail takes the Zhang & Stephens (2009) posterior-mean GPD fit, its
    shape weakly regularised toward 0.5.  The moment estimator cannot give
    shapes above 0.5, which would make the heavy-tail diagnostic unreachable.
    """
    k_hat = np.full(lw.shape[1], math.nan)
    # Points with a spread; each one's tail and, in row 0, its threshold mu.
    cols = np.flatnonzero(-lw.min(axis=0) > 1e-12)
    order = np.argsort(lw[:, cols], axis=0)[len(lw) - tail_len - 1 :]
    w = np.exp(lw[order, cols])
    excesses = w[1:] - w[0]
    # Chains repeat rejected states, so ties with the threshold weight show
    # up as sub-ulp excesses; they would wreck the tail fit.  The n positive
    # excesses of a point are a suffix of its sorted tail.
    n = (excesses > 1e-10 * excesses.max(axis=0)).sum(axis=0)
    low = excesses[np.minimum(tail_len - n, tail_len - 1), np.arange(len(cols))]
    fit = (n >= 5) & (excesses[-1] - low >= 1e-12 * excesses[-1])
    cols, order, w, excesses, n = cols[fit], order[:, fit], w[:, fit], excesses[:, fit], n[fit]
    x = np.where(np.arange(tail_len)[:, None] >= tail_len - n, excesses, 0.0)  # log1p(-b * 0) adds 0
    m_grid = 30 + np.sqrt(n).astype(int)
    grid = np.arange(m_grid.max(initial=30), dtype=float)[:, None]
    b = 1.0 - np.sqrt(m_grid / (grid + 0.5))
    b = b / (3.0 * excesses[tail_len - n + (n - 2) // 4, np.arange(len(n))]) + 1.0 / excesses[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # log1p(-b x) over slices of grid rows of at most BLOCK_ELEMENTS elements, not one
        # (grid x tail x points) array; each column still sums its tail in the same order.
        k = np.empty_like(b)
        step = max(1, BLOCK_ELEMENTS // max(1, x.size))
        for rows in range(0, len(b), step):
            terms = -b[rows : rows + step, None] * x
            k[rows : rows + step] = np.log1p(terms, out=terms).sum(axis=1)
        k /= n
        log_lik = np.where(grid < m_grid, n * (np.log(-(b / k)) - k - 1.0), -np.inf)
        weights = np.exp(log_lik - _logsumexp(log_lik, axis=0))
        b_post = np.sum(b * weights, axis=0) / weights.sum(axis=0)
        k_post = np.log1p(-b_post * x).sum(axis=0) / n
        sigma = -k_post / b_post
        shape = (n * k_post + 5.0) / (n + 10.0)
        ok = np.isfinite(shape) & np.isfinite(sigma)
        cols, order, mu, sigma, shape = cols[ok], order[1:, ok], w[0, ok], sigma[ok], shape[ok]
        # GPD quantiles at the tail's plotting positions, truncated at the
        # raw maximum weight exp(0) = 1.
        p = (np.arange(tail_len)[:, None] + 0.5) / tail_len
        gpd = np.where(abs(shape) < 1e-12, mu - sigma * np.log1p(-p), mu + sigma / shape * ((1.0 - p) ** -shape - 1.0))
    lw[order, cols] = np.log(np.minimum(gpd, 1.0))
    k_hat[cols] = shape
    return k_hat


def sample_predictive(sample: PosteriorSample, X, rng: np.random.Generator) -> np.ndarray:
    """(draws x points) responses sampled from the posterior predictive.

    All allocation uniforms are drawn first, then all standard normals,
    each in (draw, point) order.  The uniforms are drawn into the result,
    the one (draws x points) array the pass holds; each block of draws then
    draws its normals and overwrites the uniforms its expert pick has used.
    Successive ``standard_normal`` calls continue one stream, so the draws
    and the generator's final state are those of one call over all points.
    """
    out = rng.random((sample.n_draws, len(X)))
    for block, inverse, alpha, means, variances in sample.moment_blocks(X):
        uniforms = out[block]
        out[block], _ = _draw_from_moments(alpha, means, variances, uniforms, rng.standard_normal(uniforms.shape), inverse)
    return out


def _quantiles(draws: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(draws, probs, axis=0)`` from one sort of the draw axis,
    made in place: ``draws`` is left sorted, and no copy of it is made, so
    a caller passes an array it no longer needs.

    NumPy's default "linear" method (Hyndman & Fan's type 7) with its exact
    arithmetic: ``_quantile_rows`` and ``_lerp``.  A column holding a NaN
    gives NaN.  Where tied zeros of both signs meet, the sign of a zero
    result may differ from NumPy's, whose partition leaves their order
    unspecified.
    """
    draws.sort(axis=0)
    lo, hi, t = _quantile_rows(len(draws), probs)
    out = _lerp(draws[lo], draws[hi], t.reshape(t.shape + (1,) * (draws.ndim - 1)))
    np.copyto(out, draws[-1], where=np.isnan(draws[-1]))
    return out


def _quantile_rows(n: int, probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, t)``: the type-7 quantiles of ``n`` sorted rows at ``probs``
    lie ``t`` of the way from row ``lo`` to row ``hi``.  As in NumPy, the
    virtual index is ``(n - 1) * p`` and a quantile at or past the last row
    takes the last row as both neighbours, with ``t`` 1."""
    virtual = (n - 1) * np.asarray(probs, dtype=float)
    below = np.floor(virtual)
    last = virtual >= n - 1
    below[last] = -1
    lo = below.astype(np.intp)
    hi = lo + 1
    hi[last] = -1
    return lo, hi, virtual - below


def _lerp(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """NumPy's two-sided interpolation ``a + (b - a) * t``, taken from ``b``
    where ``t >= 0.5``, so that ``t = 1`` gives ``b`` exactly."""
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _max_ignoring_nan(values: np.ndarray) -> float:
    """Largest value that is not NaN, or NaN when there is none."""
    values = values[~np.isnan(values)]
    return float(values.max()) if values.size else math.nan


def _rank_normal(draws: np.ndarray) -> tuple:
    """Normal scores of each parameter's ranks, pooled over (chains, draws, P);
    tied draws, as repeated rejected states are, share their average rank.

    Also returns the stable ascending argsort of each column of the pooled
    (rows x P) draws.  The scores are a non-decreasing function of the
    draw, so that ordering sorts them as well."""
    flat = draws.reshape(-1, draws.shape[-1])
    n = len(flat)
    # Tied draws take mirrored places within their group in stable sorts of
    # the column and of the column reversed, so the two sum to twice its mid-rank.
    place = np.arange(n)[:, None]
    up, down = np.empty((2, *flat.shape), dtype=int)
    order = np.argsort(flat, axis=0, kind="stable")
    np.put_along_axis(up, order, place, axis=0)
    np.put_along_axis(down, n - 1 - np.argsort(flat[::-1], axis=0, kind="stable"), place, axis=0)
    return _normal_scores(n)[up + down].reshape(draws.shape), order


@functools.lru_cache(maxsize=4)
def _normal_scores(n: int) -> np.ndarray:
    """Normal score of each mid-rank r = k / 2 that n pooled draws can take, k = 0 .. 2n - 2:
    the inverse normal CDF of (r + 1 - 0.375) / (n + 0.25).  Kept per ``n``, read-only, since
    every R-hat of a sample ranks the same pooled draw count twice."""
    from statistics import NormalDist  # imported on use: it pulls in fractions and decimal, and only R-hat needs it

    inv_cdf = NormalDist().inv_cdf
    scores = np.array([inv_cdf(p) for p in ((np.arange(2 * n - 1) / 2 + 1.0 - 0.375) / (n + 0.25)).tolist()])
    scores.flags.writeable = False
    return scores


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
    z, order = _rank_normal(np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half :]]))
    folded, _ = _rank_normal(np.abs(z - _ordered_median(z.reshape(-1, z.shape[-1]), order)))
    return np.maximum(_rhat(z), _rhat(folded))


def _ordered_median(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Median of each column of a (rows x P) array whose columns ``order``
    sorts: the middle row, or ``(a + b) / 2`` of the two middle rows.  Equal
    to ``np.median(rows, axis=0)`` bit for bit on columns holding no NaN, nor
    zeros of both signs, whose order a sort leaves unspecified; normal
    scores hold neither."""
    mid, columns = len(rows) // 2, np.arange(rows.shape[1])
    middle = rows[order[mid], columns]
    return middle if len(rows) % 2 else (rows[order[mid - 1], columns] + middle) / 2


def _rhat_max(sample: PosteriorSample) -> float:
    """Worst split R-hat over the parameters the sampler moves (``_moved_blocks``),
    chains read from the contiguous blocks of the stack; NaN unless each
    chain holds at least 4 draws."""
    s, c = sample.n_draws, sample.chain_count
    if s // c < 4:
        return math.nan
    groups = [getattr(sample, name)[moved] for name, moved in _moved_blocks(sample.n_experts)]
    free = np.concatenate([g.reshape(s, -1) for g in groups], axis=1)
    return _max_ignoring_nan(_split_rhat(free.reshape(c, s // c, -1)))


def fit_diagnostics(sample: PosteriorSample, data: Dataset) -> FitDiagnostics:
    """Bundle LPPD, PSIS-LOO, central 95% interval coverage and the worst split R-hat into one report.

    R-hat and then coverage come first, each in its own pass, so that
    neither R-hat's rank arrays nor a CDF block's ``ndtr`` workspace ever
    coexists with the (draws x points) log densities of the pointwise pass."""
    rhat_max = _rhat_max(sample)
    coverage, coverage_se = _coverage(sample, data, 0.95)
    loo, loo_se, k_hat, lppd = _psis_loo(_pointwise(sample, data))
    return FitDiagnostics(
        lppd=lppd,
        psis_loo=loo,
        psis_loo_se=loo_se,
        cic95=coverage,
        cic95_se=coverage_se,
        pareto_k_max=_max_ignoring_nan(k_hat),
        rhat_max=rhat_max,
    )
