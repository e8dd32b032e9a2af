"""Model selection on the fit/coverage Pareto frontier.

Candidate configurations are scored by PSIS-LOO on the training set (fit,
larger is better) and by a binomial calibration cost over a grid of
credible levels (coverage, smaller is better).  The selector walks the
Pareto frontier in order of worsening coverage and trades coverage away
only when a one-sided Chebyshev bound says the fit improvement is more
likely than the threshold ``nu``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .model import Dataset, PriorSpec
from .posterior import PosteriorSample, _max_ignoring_nan, psis_loo, sample_posterior, sample_predictive

__all__ = [
    "Trial",
    "CoverageGrid",
    "coverage_counts",
    "coverage_cost",
    "chebyshev_lb",
    "pareto_front",
    "select_best",
    "run_trial",
    "write_trials_csv",
]


@dataclass(frozen=True)
class Trial:
    """One fitted configuration with its fit metric, coverage cost and the
    largest Pareto k of its PSIS-LOO metric."""

    trial_id: int
    hyperparams: dict
    metric: float
    metric_se: float
    coverage_cost: float
    sample: PosteriorSample | None = field(default=None, compare=False, repr=False)
    pareto_k_max: float = math.nan

    def __post_init__(self):
        if self.metric_se < 0.0:
            raise ValueError("metric_se must be non-negative")


@dataclass(frozen=True)
class CoverageGrid:
    """Counts of training points inside pooled predictive central intervals."""

    k_levels: int
    levels: np.ndarray
    counts: np.ndarray
    n_points: int

    def __post_init__(self):
        if self.k_levels < 2:
            raise ValueError("at least two grid levels are required")
        levels = np.asarray(self.levels, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if levels.shape != (self.k_levels - 1,) or counts.shape != levels.shape:
            raise ValueError("levels and counts must hold K - 1 entries")
        if counts.min() < 0 or counts.max() > self.n_points:
            raise ValueError("counts must lie in [0, N]")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "counts", counts)


def coverage_counts(
    sample: PosteriorSample, data: Dataset, k_levels: int, rng: np.random.Generator | int = 0
) -> CoverageGrid:
    """Count observations inside empirical central intervals at each level.

    Intervals pool one predictive draw per posterior draw at every
    covariate row, so they reflect the full posterior predictive rather
    than any single parameter draw.
    """
    if k_levels < 2:
        raise ValueError("k_levels must be at least 2")
    if sample.n_draws < 100:
        raise ValueError(
            f"{sample.n_draws} predictive draws cannot resolve a 1/{k_levels} coverage grid; "
            "at least 100 are required"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draws = sample_predictive(sample, data.covariates, rng)
    levels = np.arange(1, k_levels) / k_levels
    probs = np.concatenate([(1.0 - levels) / 2.0, (1.0 + levels) / 2.0])
    lo, hi = np.split(np.quantile(draws, probs, axis=0), 2)
    counts = ((data.responses >= lo) & (data.responses <= hi)).sum(axis=1)
    return CoverageGrid(k_levels, levels, counts, len(data))


def coverage_cost(grid: CoverageGrid, n_points: int) -> float:
    """Negative log-probability of the observed counts under ideal calibration.

    Perfect calibration makes each count binomial with success rate equal
    to its level; lower cost means better-calibrated predictive intervals.
    """
    # scipy.stats.binom.logpmf's arithmetic, without the cost of importing scipy.stats.
    k, n, p = grid.counts, n_points, grid.levels
    logpmf = gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1)) + xlogy(k, p) + xlog1py(n - k, -p)
    return float(-logpmf.sum())


def chebyshev_lb(metric_a: float, se_a: float, metric_b: float, se_b: float) -> float:
    """One-sided (Cantelli) lower bound on P(B beats A).

    Evaluations are treated as independent with the given means and
    standard errors; the bound is deliberately pessimistic.
    """
    if se_a < 0.0 or se_b < 0.0:
        raise ValueError("standard errors must be non-negative")
    delta = metric_b - metric_a
    if delta <= 0.0:
        return 0.0
    var = se_a**2 + se_b**2
    if var == 0.0:
        return 1.0
    return delta**2 / (delta**2 + var)


def pareto_front(trials: list) -> list:
    """Trials not dominated under (maximize metric, minimize coverage cost)."""
    metric = np.array([t.metric for t in trials], dtype=float)
    cost = np.array([t.coverage_cost for t in trials], dtype=float)
    # Entry (u, t): trial u is no worse than trial t on both axes and better on one.
    no_worse = (metric[:, None] >= metric) & (cost[:, None] <= cost)
    dominated = (no_worse & ((metric[:, None] > metric) | (cost[:, None] < cost))).any(axis=0)
    return [t for t, d in zip(trials, dominated) if not d]


def select_best(trials: list, nu: float = 0.5) -> Trial:
    """Walk the Pareto frontier in ascending coverage cost and keep a
    candidate only when the Chebyshev bound on its fit improvement
    exceeds ``nu``.
    """
    if not trials:
        raise ValueError("at least one trial is required")
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    front = pareto_front(list(trials))
    front.sort(key=lambda t: (t.coverage_cost, -t.metric, t.trial_id))
    best = None
    for candidate in front:
        if best is None or chebyshev_lb(best.metric, best.metric_se, candidate.metric, candidate.metric_se) > nu:
            best = candidate
    return best


def run_trial(trial_id: int, hyperparams: dict, data: Dataset, settings, k_levels: int = 20) -> Trial:
    """Fit one candidate configuration and score it for selection.

    ``hyperparams`` may set ``experts`` plus any PriorSpec field; the fit
    metric is PSIS-LOO on the training data and the coverage cost comes
    from a ``k_levels`` grid of pooled predictive intervals.  Candidates
    are typically drawn at random and the resulting trials handed to
    :func:`select_best`.
    """
    prior_kwargs = {k: v for k, v in hyperparams.items() if k != "experts"}
    sample = sample_posterior(data, PriorSpec(**prior_kwargs), hyperparams.get("experts", 1), settings)
    metric, metric_se, k_hat = psis_loo(sample, data)
    k_max = _max_ignoring_nan(k_hat)
    if k_max > 0.7:
        warnings.warn(
            f"trial {trial_id}: Pareto k max {k_max:.2f} > 0.7, so its PSIS-LOO metric is unreliable",
            RuntimeWarning,
        )
    grid = coverage_counts(sample, data, k_levels, rng=settings.seed)
    return Trial(trial_id, dict(hyperparams), metric, metric_se, coverage_cost(grid, len(data)), sample, k_max)


def write_trials_csv(trials: list, selected: Trial | None, path) -> None:
    """Persist the trial ledger: one row per trial plus the selected flag."""
    keys = sorted({k for t in trials for k in t.hyperparams})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", *keys, "metric", "metric_se", "coverage_cost", "pareto_k_max", "selected"])
        for t in trials:
            writer.writerow(
                [
                    t.trial_id,
                    *[t.hyperparams.get(k, "") for k in keys],
                    f"{t.metric:.6f}",
                    f"{t.metric_se:.6f}",
                    f"{t.coverage_cost:.6f}",
                    f"{t.pareto_k_max:.6f}",
                    int(selected is not None and t.trial_id == selected.trial_id),
                ]
            )
