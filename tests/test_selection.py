"""Selection tests: coverage grid, binomial cost, Cantelli bound, Pareto walk."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BehaviorGateParams, ExpertParams, MixingGateParams, ModelParams, pareto_front_loop
from scipy.stats import binom

from anomix.model import Dataset
from anomix import selection
from anomix.posterior import PosteriorSample, SamplerSettings
from anomix.selection import (
    CoverageGrid,
    Trial,
    chebyshev_lb,
    coverage_cost,
    coverage_counts,
    pareto_front,
    run_trial,
    select_best,
    write_trials_csv,
)


def single_expert(intercept=0.0, slope=0.0, sd=1.0):
    return ModelParams(
        (ExpertParams(intercept, [slope], sd),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def make_dataset(x, y):
    x = np.asarray(x, dtype=float)
    ts = np.datetime64("2024-01-01", "s") + np.arange(len(x)) * np.timedelta64(3600, "s")
    return Dataset(x, np.asarray(y, dtype=float), ts)


def jittered_sample(rng, n_draws=400, sd=1.0):
    draws = [
        single_expert(intercept=rng.normal(0, 0.02), slope=rng.normal(0, 0.02), sd=sd)
        for _ in range(n_draws)
    ]
    return PosteriorSample.from_draws(draws, 0.25, 1, 0)


class TestCoverageCounts:
    def test_well_specified_median_interval(self):
        rng = np.random.default_rng(1)
        sample = jittered_sample(rng)
        x = rng.uniform(-2, 2, size=(400, 1))
        y = rng.normal(0, 1, 400)
        grid = coverage_counts(sample, make_dataset(x, y), k_levels=2, rng=rng)
        assert grid.levels.tolist() == [0.5]
        assert grid.counts[0] == pytest.approx(200, abs=40)

    def test_degenerate_data_hits_every_interval(self):
        rng = np.random.default_rng(2)
        sample = jittered_sample(rng)
        x = rng.uniform(-2, 2, size=(50, 1))
        from anomix.posterior import sample_predictive

        draws = sample_predictive(sample, x, np.random.default_rng(7))
        y = np.quantile(draws, 0.5, axis=0)  # predictive median per point
        grid = coverage_counts(sample, make_dataset(x, y), k_levels=10, rng=7)
        assert np.all(grid.counts == 50)

    def test_counts_monotone_in_level(self):
        rng = np.random.default_rng(3)
        sample = jittered_sample(rng)
        x = rng.uniform(-2, 2, size=(300, 1))
        y = rng.normal(0, 1, 300)
        grid = coverage_counts(sample, make_dataset(x, y), k_levels=20, rng=rng)
        assert np.all(np.diff(grid.counts) >= 0)

    @pytest.mark.parametrize("k_levels", [2, 10, 20])
    def test_matches_per_level_quantile_loop(self, k_levels):
        from anomix.posterior import sample_predictive

        rng = np.random.default_rng(5)
        sample = jittered_sample(rng, n_draws=401)
        x = rng.uniform(-2, 2, size=(300, 1))
        draws = sample_predictive(sample, x, np.random.default_rng(9))
        y = rng.normal(0, 1, 300)
        # With 401 draws every level's interval ends sit on order statistics
        # whose ranks are multiples of 10; put a third of the responses there.
        ranks = rng.choice([20, 100, 180, 200, 300, 380], size=100)
        y[::3] = np.sort(draws, axis=0)[ranks, np.arange(0, 300, 3)]
        data = make_dataset(x, y)

        levels = np.arange(1, k_levels) / k_levels
        expected = np.empty(k_levels - 1, dtype=int)
        for j, alpha in enumerate(levels):
            lo = np.quantile(draws, (1.0 - alpha) / 2.0, axis=0)
            hi = np.quantile(draws, (1.0 + alpha) / 2.0, axis=0)
            expected[j] = int(np.sum((y >= lo) & (y <= hi)))

        grid = coverage_counts(sample, data, k_levels, rng=np.random.default_rng(9))
        assert np.array_equal(grid.levels, levels)
        assert np.array_equal(grid.counts, expected)

    def test_too_few_draws_rejected(self):
        rng = np.random.default_rng(4)
        sample = jittered_sample(rng, n_draws=50)
        x = rng.uniform(-2, 2, size=(20, 1))
        with pytest.raises(ValueError):
            coverage_counts(sample, make_dataset(x, np.zeros(20)), k_levels=10)


class TestCoverageCost:
    def test_modal_counts_minimize_cost(self):
        # N divisible by K keeps every alpha*N integral, where the binomial
        # mode sits exactly.
        n, k = 100, 20
        levels = np.arange(1, k) / k
        modal = np.round(levels * n).astype(int)
        grid = CoverageGrid(k, levels, modal, n)
        cost = coverage_cost(grid, n)
        best = sum(min(-binom.logpmf(c, n, a) for c in range(n + 1)) for a in levels)
        assert cost == pytest.approx(best, abs=1e-9)

    def test_overcoverage_penalized(self):
        n, k = 100, 20
        levels = np.arange(1, k) / k
        modal = np.round(levels * n).astype(int)
        full = np.full(k - 1, n)
        assert coverage_cost(CoverageGrid(k, levels, full, n), n) > coverage_cost(
            CoverageGrid(k, levels, modal, n), n
        )

    def test_k2_single_term(self):
        grid = CoverageGrid(2, np.array([0.5]), np.array([30]), 60)
        assert coverage_cost(grid, 60) == pytest.approx(float(-binom.logpmf(30, 60, 0.5)), abs=1e-12)


    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400), st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from(["random", "zero", "full"]))
    def test_bitwise_equal_to_scipy_binom(self, n, k_levels, seed, counts):
        levels = np.arange(1, k_levels) / k_levels
        rng = np.random.default_rng(seed)
        k = {"random": rng.integers(0, n + 1, k_levels - 1), "zero": np.zeros(k_levels - 1, dtype=int),
             "full": np.full(k_levels - 1, n)}[counts]
        assert coverage_cost(CoverageGrid(k_levels, levels, k, n), n) == float(-binom.logpmf(k, n, levels).sum())


class TestChebyshevLb:
    def test_no_improvement_is_zero(self):
        assert chebyshev_lb(1.0, 0.5, 1.0, 0.5) == 0.0
        assert chebyshev_lb(1.0, 0.5, 0.5, 0.5) == 0.0

    def test_cantelli_value(self):
        assert chebyshev_lb(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_certain_improvement(self):
        assert chebyshev_lb(0.0, 0.0, 1.0, 0.0) == 1.0

    def test_monotone_in_gap(self):
        gaps = np.linspace(0.1, 5, 20)
        vals = [chebyshev_lb(0.0, 1.0, g, 1.0) for g in gaps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def ledger():
    """Six trials, three Pareto-optimal; the hand trace selects trial 2.

    Pareto set ordered by ascending coverage cost:
      t1 (cost 10, metric -120, se 2)
      t2 (cost 20, metric -100, se 2)   LB vs t1: 400/408 = 0.98 > 0.5 -> accept
      t3 (cost 30, metric  -99, se 10)  LB vs t2: 1/105  = 0.0095 < 0.5 -> reject
    """
    return [
        Trial(1, {"experts": 1}, -120.0, 2.0, 10.0),
        Trial(2, {"experts": 2}, -100.0, 2.0, 20.0),
        Trial(3, {"experts": 3}, -99.0, 10.0, 30.0),
        Trial(4, {"experts": 4}, -130.0, 2.0, 15.0),  # dominated by t1
        Trial(5, {"experts": 5}, -105.0, 3.0, 25.0),  # dominated by t2
        Trial(6, {"experts": 6}, -150.0, 1.0, 50.0),  # dominated by all
    ]


class TestSelectBest:
    def test_single_trial(self):
        t = Trial(1, {}, -5.0, 1.0, 3.0)
        assert select_best([t]) is t

    def test_hand_trace(self):
        best = select_best(ledger(), nu=0.5)
        assert best.trial_id == 2

    def test_dominated_never_selected(self):
        trials = ledger()
        front_ids = {t.trial_id for t in pareto_front(trials)}
        assert front_ids == {1, 2, 3}
        assert select_best(trials).trial_id in front_ids

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        trials = ledger()
        for _ in range(10):
            shuffled = list(trials)
            rng.shuffle(shuffled)
            assert select_best(shuffled).trial_id == 2

    def test_result_is_pareto_optimal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            trials = [
                Trial(i, {}, float(rng.normal(-100, 10)), float(rng.uniform(0, 5)), float(rng.uniform(5, 50)))
                for i in range(8)
            ]
            best = select_best(trials)
            assert best in pareto_front(trials)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestParetoFront:
    # Few distinct values, so that trials tie on one axis or on both.
    AXIS = st.sampled_from([-math.inf, -2.0, -1.0, 0.0, 0.5, math.inf, math.nan])

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(AXIS, AXIS), max_size=8))
    def test_matches_the_all_pairs_walk(self, points):
        trials = [Trial(i, {}, metric, 1.0, cost) for i, (metric, cost) in enumerate(points)]
        assert [t.trial_id for t in pareto_front(trials)] == [t.trial_id for t in pareto_front_loop(trials)]


class TestRunTrial:
    def test_fit_and_score_candidates(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, size=(120, 1))
        y = 1.0 + 0.5 * x[:, 0] + rng.normal(0, 0.4, 120)
        data = make_dataset(x, y)
        settings = SamplerSettings(chains=1, iterations=400, burn_in=250, seed=2)
        trials = [
            run_trial(i, hp, data, settings)
            for i, hp in enumerate([{"experts": 1}, {"experts": 1, "mean_coeff_scale": 5.0}])
        ]
        assert all(t.metric_se >= 0 and np.isfinite(t.coverage_cost) for t in trials)
        best = select_best(trials)
        assert best in trials
        assert best.sample is not None

    def test_single_expert_fit_ignores_the_gate_prior(self):
        # At M = 1 the behavior gate stays at its prior location and its
        # prior term is left out, so the gate scale cannot move a single draw.
        rng = np.random.default_rng(23)
        x = rng.uniform(-2, 2, size=(60, 2))
        data = make_dataset(x, 0.5 * x[:, 0] - 0.3 * x[:, 1] + rng.normal(0, 0.4, 60))
        settings = SamplerSettings(chains=2, iterations=200, burn_in=100, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            narrow, wide = (
                run_trial(i, {"experts": 1, "gate_coeff_scale": scale}, data, settings)
                for i, scale in enumerate((0.5, 2.0))
            )
        for name in ("expert_coeffs", "expert_sds", "mixing", "behavior"):
            assert np.array_equal(getattr(narrow.sample, name), getattr(wide.sample, name)), name
        for name in ("metric", "metric_se", "coverage_cost"):
            assert getattr(narrow, name) == getattr(wide, name), name

    @pytest.mark.parametrize("k_max, warns", [(0.7, False), (0.71, True)])
    def test_pareto_k_is_kept_and_warned_above_0_7(self, monkeypatch, tmp_path, k_max, warns):
        rng = np.random.default_rng(22)
        x = rng.uniform(-2, 2, size=(40, 1))
        data = make_dataset(x, 0.5 * x[:, 0] + rng.normal(0, 0.4, 40))
        k_hat = np.array([0.1, math.nan, k_max, 0.3])
        monkeypatch.setattr(selection, "psis_loo", lambda sample, data: (-50.0, 2.0, k_hat))
        settings = SamplerSettings(chains=1, iterations=200, burn_in=100, seed=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trial = run_trial(3, {"experts": 1}, data, settings)
        assert trial.pareto_k_max == k_max
        assert [str(w.message)[:8] for w in caught] == (["trial 3:"] if warns else [])
        path = tmp_path / "trials.csv"
        write_trials_csv([trial], trial, path)
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["pareto_k_max"]) == k_max
        assert row["selected"] == "1"


class TestTrialLedgerFile:
    def test_round_trip_columns(self, tmp_path):
        trials = ledger()
        best = select_best(trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(trials, best, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("trial_id,experts,metric")
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags.count("1") == 1
        assert flags[1] == "1"  # trial 2 is the selected row
