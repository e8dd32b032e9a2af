"""Sampler and diagnostics tests.

The expensive recovery checks (full draw counts, KS calibration, exact
LOO refits) live in the acceptance suite; these tests exercise the same
code paths at unit scale.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq

from anomix.model import (
    BehaviorGateParams,
    Dataset,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    PriorSpec,
    _embed_rows,
    conditional_cdf_rows,
    fused_moments,
    log_likelihood,
    log_prior,
)
from anomix.posterior import (
    FitDiagnostics,
    PosteriorSample,
    SamplerSettings,
    _log_target,
    _rhat_max,
    _split_rhat,
    cic,
    fit_diagnostics,
    lppd,
    psis_loo,
    sample_posterior,
)


def make_dataset(x, y):
    x = np.asarray(x, dtype=float)
    ts = np.datetime64("2024-01-01", "s") + np.arange(len(x)) * np.timedelta64(3600, "s")
    return Dataset(x, np.asarray(y, dtype=float), ts)


def linear_data(n, seed, intercept=2.0, slope=3.0, sd=0.5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 1))
    y = intercept + slope * x[:, 0] + rng.normal(0, sd, n)
    return make_dataset(x, y)


def single_expert(intercept=0.0, slope=0.0, sd=1.0):
    return ModelParams(
        (ExpertParams(intercept, [slope], sd),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def make_sample(draws):
    return PosteriorSample.from_draws(draws, 0.25, 1, 0)


def root_found_interval(model, x, level):
    """Equal-tailed interval of one parameter point's conditional law at ``x``,
    by root-finding its CDF inside twelve fused sds around the fused means."""
    x = np.asarray(x, dtype=float)[None, :]
    _, means, sds = fused_moments(model, x)
    lo, hi = means.min() - 12.0 * sds.max(), means.max() + 12.0 * sds.max()
    bounds = []
    for q in ((1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0):
        root = brentq(lambda v: conditional_cdf_rows(model, x, [v])[0] - q, lo, hi, xtol=1e-13, maxiter=200)
        assert abs(conditional_cdf_rows(model, x, [root])[0] - q) <= 1e-10
        bounds.append(root)
    return tuple(bounds)


SMALL = SamplerSettings(chains=2, iterations=600, burn_in=300, seed=5)


@pytest.fixture(scope="module")
def fitted():
    # Enough draws for the tail diagnostics to stabilize; unit tests share
    # this single fit.
    data = linear_data(200, seed=10)
    settings = SamplerSettings(chains=2, iterations=1500, burn_in=750, seed=5)
    return data, sample_posterior(data, PriorSpec(), 1, settings)


class TestSampler:
    def test_same_seed_reproduces_draws(self):
        data = linear_data(40, seed=1)
        a = sample_posterior(data, PriorSpec(), 2, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=9))
        b = sample_posterior(data, PriorSpec(), 2, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=9))
        for da, db in zip(map(a.draw, range(a.n_draws)), map(b.draw, range(b.n_draws))):
            assert np.array_equal(da.mixing.matrix, db.mixing.matrix)
            assert np.array_equal(da.behavior.coeffs, db.behavior.coeffs)
            for ea, eb in zip(da.experts, db.experts):
                assert ea.intercept == eb.intercept
                assert np.array_equal(ea.slopes, eb.slopes)
                assert ea.noise_sd == eb.noise_sd

    def test_different_seeds_differ(self):
        data = linear_data(40, seed=1)
        a = sample_posterior(data, PriorSpec(), 1, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=1))
        b = sample_posterior(data, PriorSpec(), 1, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=2))
        assert a.draw(-1).experts[0].intercept != b.draw(-1).experts[0].intercept

    def test_zero_iteration_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerSettings(chains=1, iterations=0, burn_in=0)

    def test_burn_in_must_leave_draws(self):
        with pytest.raises(ValueError):
            SamplerSettings(chains=1, iterations=100, burn_in=100)

    def test_empty_dataset_rejected(self):
        data = make_dataset(np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            sample_posterior(data, PriorSpec(), 1, SMALL)

    def test_recovers_linear_truth(self, fitted):
        _, sample = fitted
        ints = sample.expert_coeffs[:, 0, 0]
        slopes = sample.expert_coeffs[:, 0, 1]
        sds = sample.expert_sds[:, 0]
        assert abs(ints.mean() - 2.0) < 3 * ints.std()
        assert abs(slopes.mean() - 3.0) < 3 * slopes.std()
        assert abs(sds.mean() - 0.5) < 3 * sds.std()

    def test_draw_invariants(self, fitted):
        _, sample = fitted
        for d in map(sample.draw, range(sample.n_draws)):
            assert np.all(d.mixing.matrix[-1] == 0.0)
            assert all(e.noise_sd > 0 for e in d.experts)

    def test_multi_expert_chains_run(self):
        data = linear_data(60, seed=3)
        sample = sample_posterior(
            data, PriorSpec(), 2, SamplerSettings(chains=1, iterations=200, burn_in=100, seed=4)
        )
        assert sample.n_draws == 100
        assert 0.0 < sample.acceptance_rate <= 1.0


class TestLppd:
    def test_single_draw_equals_log_likelihood(self):
        model = single_expert()
        data = linear_data(30, seed=2)
        sample = make_sample([model])
        assert lppd(sample, data) == pytest.approx(log_likelihood(model, data), abs=1e-10)

    def test_single_point_value(self):
        model = single_expert()
        data = make_dataset([[0.0]], [0.0])
        val = lppd(make_sample([model]), data)
        assert val == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12)
        assert val == pytest.approx(-0.9189385332046727, abs=1e-10)

    def test_never_exceeds_best_draw(self):
        draws = [single_expert(sd=s) for s in (0.5, 1.0, 2.0)]
        data = linear_data(25, seed=7)
        best = max(log_likelihood(d, data) for d in draws)
        assert lppd(make_sample(draws), data) <= best

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        draws = [single_expert(sd=s) for s in (0.5, 1.0, 2.0)]
        x = rng.normal(size=(15, 1))
        y = rng.normal(size=15)
        data = make_dataset(x, y)
        perm = rng.permutation(15)
        shuffled = make_dataset(x[perm], y[perm])
        a = lppd(make_sample(draws), data)
        b = lppd(make_sample(draws[::-1]), shuffled)
        assert a == pytest.approx(b, rel=1e-12)


class TestPsisLoo:
    def test_identical_draws_equal_lppd(self):
        model = single_expert()
        data = linear_data(20, seed=4)
        sample = make_sample([model] * 150)
        est, se, k = psis_loo(sample, data)
        assert est == pytest.approx(lppd(sample, data), abs=1e-10)
        assert np.all(np.isnan(k))

    def test_never_exceeds_lppd(self, fitted):
        data, sample = fitted
        est, _, _ = psis_loo(sample, data)
        assert est <= lppd(sample, data)

    def test_small_sample_warns(self):
        draws = [single_expert(sd=s) for s in np.linspace(0.5, 2.0, 20)]
        data = linear_data(10, seed=5)
        with pytest.warns(RuntimeWarning):
            psis_loo(make_sample(draws), data)

    def test_pareto_k_reported(self, fitted):
        data, sample = fitted
        _, _, k = psis_loo(sample, data)
        assert k.shape == (len(data),)
        assert np.nanmax(k) < 0.7  # well-specified model, healthy weights


class TestCic:
    def test_single_expert_interval_is_gaussian(self):
        # Responses 1e-6 inside and outside mean -+ 1.96 sd: exactly the
        # inner two are covered.
        model = single_expert(intercept=1.0, slope=2.0, sd=0.7)
        mean = 1.0 + 2.0 * 0.5
        half = 1.959963984540054 * 0.7
        y = mean + np.array([-half + 1e-6, half - 1e-6, -half - 1e-6, half + 1e-6])
        coverage, _ = cic(make_sample([model]), make_dataset(np.full((4, 1), 0.5), y), 0.95)
        assert coverage == 0.5

    def test_extreme_level_covers_everything(self):
        model = single_expert()
        data = linear_data(50, seed=6, intercept=0.0, slope=0.0, sd=1.0)
        coverage, _ = cic(make_sample([model]), data, level=0.9999999)
        assert coverage == 1.0

    def test_monotone_in_level(self, fitted):
        data, sample = fitted
        values = [cic(sample, data, level)[0] for level in (0.5, 0.8, 0.95, 0.99)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_true_model_covers_nominal(self):
        rng = np.random.default_rng(13)
        model = single_expert(intercept=0.5, slope=-1.0, sd=0.8)
        x = rng.uniform(-2, 2, size=(2000, 1))
        y = 0.5 - 1.0 * x[:, 0] + rng.normal(0, 0.8, 2000)
        coverage, _ = cic(make_sample([model]), make_dataset(x, y))
        assert coverage == pytest.approx(0.95, abs=0.02)

    def test_matches_root_found_interval(self):
        # The CDF-based membership test must agree with explicit interval
        # bounds from the root finder.
        rng = np.random.default_rng(14)
        e1 = ExpertParams(0.0, [1.0], 0.6)
        e2 = ExpertParams(1.5, [-0.5], 1.2)
        model = ModelParams(
            (e1, e2),
            MixingGateParams([[0.8, -0.3], [0.0, 0.0]]),
            BehaviorGateParams([0.5, 0.2]),
        )
        x = rng.uniform(-1, 1, size=(50, 1))
        y = rng.normal(0.5, 1.5, size=50)
        data = make_dataset(x, y)
        inside = 0
        for xi, yi in zip(x, y):
            lo, hi = root_found_interval(model, xi, 0.95)
            inside += lo <= yi <= hi
        coverage, _ = cic(make_sample([model]), data, 0.95)
        assert coverage == pytest.approx(inside / 50, abs=1e-12)

    def test_level_validation(self, fitted):
        data, sample = fitted
        with pytest.raises(ValueError):
            cic(sample, data, level=1.0)


class TestFitDiagnostics:
    def test_bundle_fields(self, fitted):
        data, sample = fitted
        diag = fit_diagnostics(sample, data)
        assert diag.psis_loo <= diag.lppd
        assert 0.0 <= diag.cic95 <= 1.0
        assert diag.psis_loo_se >= 0.0 and diag.cic95_se >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FitDiagnostics(0.0, 0.0, -1.0, 0.5, 0.0, 0.0)


class TestLogTarget:
    @pytest.mark.parametrize("n_experts", [1, 2, 3])
    def test_matches_model_density_in_log_sd_coordinates(self, n_experts):
        # The sampler moves log sd, so its target carries the Jacobian
        # sum(log sd) on top of the likelihood and the prior over sd.
        rng = np.random.default_rng(40 + n_experts)
        data = make_dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        prior = PriorSpec(mean_coeff_scale=2.0, gate_coeff_scale=0.7, noise_log_location=0.3, noise_log_scale=0.6)
        chains = 4
        experts = rng.normal(size=(chains, n_experts, 4))
        mixing = rng.normal(size=(chains, n_experts, 3))
        mixing[:, -1] = 0.0
        behavior = rng.normal(size=(chains, 3))
        target = _log_target(experts, mixing, behavior, _embed_rows(data.covariates), data.responses, prior)
        sample = PosteriorSample(experts[..., :-1], np.exp(experts[..., -1]), mixing, behavior, 0.25, chains, 0)
        for c in range(chains):
            params = sample.draw(c)
            expected = log_likelihood(params, data) + log_prior(params, prior) + experts[c, :, -1].sum()
            assert target[c] == pytest.approx(expected, rel=1e-9)


def stack_from_chains(chains):
    """A one-expert, no-covariate stack whose behavior coefficient holds
    ``chains`` (C, N) and whose other parameters are iid normal."""
    c, n = chains.shape
    rng = np.random.default_rng(8)
    return PosteriorSample(
        rng.normal(size=(c * n, 1, 1)),
        rng.uniform(0.5, 2.0, size=(c * n, 1)),
        np.zeros((c * n, 1, 1)),
        chains.reshape(-1, 1),
        0.25,
        c,
        0,
    )


class TestSplitRhat:
    def test_iid_chains_read_below_1_01(self):
        sample = stack_from_chains(np.random.default_rng(1).normal(size=(4, 1000)))
        assert 1.0 <= _rhat_max(sample) < 1.01

    def test_shifted_chain_reads_above_1_01(self):
        chains = np.random.default_rng(2).normal(size=(4, 1000))
        chains[3] += 1.0
        assert _rhat_max(stack_from_chains(chains)) > 1.01

    def test_invariant_under_monotone_transform(self):
        chains = np.random.default_rng(3).normal(size=(3, 200))
        chains[1] += 1.0
        sample = stack_from_chains(chains)
        transformed = PosteriorSample(
            sample.expert_coeffs**3,
            np.log1p(sample.expert_sds),
            sample.mixing,
            np.exp(sample.behavior),
            0.25,
            3,
            0,
        )
        assert _rhat_max(transformed) == _rhat_max(sample) > 1.01

    def test_matches_hand_computation(self):
        # Two chains of four draws split into four halves of two:
        # [0.1, 0.5], [1.2, 0.8], [0.3, 0.9], [1.5, 1.1].
        chains = np.array([[0.1, 0.5, 0.3, 0.9], [1.2, 0.8, 1.5, 1.1]])[..., None]
        normal = NormalDist()

        def rhat(halves):
            n = len(halves[0])
            means = [sum(h) / n for h in halves]
            within = sum(sum((v - mu) ** 2 for v in h) / (n - 1) for h, mu in zip(halves, means)) / len(halves)
            grand = sum(means) / len(means)
            between = n * sum((mu - grand) ** 2 for mu in means) / (len(means) - 1)
            return math.sqrt(((n - 1) / n * within + between / n) / within)

        def scores(ranks):
            return [[normal.inv_cdf((r - 0.375) / 8.25) for r in h] for h in ranks]

        bulk = rhat(scores([[1, 3], [7, 4], [2, 5], [8, 6]]))
        # The normal scores are symmetric about their median 0, so their
        # distances from it tie in pairs: ranks 4/5 -> 1.5, 3/6 -> 3.5,
        # 2/7 -> 5.5 and 1/8 -> 7.5.
        folded = rhat(scores([[7.5, 3.5], [5.5, 1.5], [5.5, 1.5], [7.5, 3.5]]))
        assert _split_rhat(chains)[0] == pytest.approx(max(bulk, folded), rel=1e-12)

    @pytest.mark.parametrize("n_draws, chain_count", [(14, 4), (6, 2), (3, 1)])
    def test_nan_unless_chains_split_into_blocks_of_four(self, n_draws, chain_count):
        sample = stack_from_chains(np.random.default_rng(4).normal(size=(1, n_draws)))
        sample = PosteriorSample(
            sample.expert_coeffs, sample.expert_sds, sample.mixing, sample.behavior, 0.25, chain_count, 0
        )
        assert math.isnan(_rhat_max(sample))

    def test_reported_by_fit_diagnostics(self, fitted):
        data, sample = fitted
        assert fit_diagnostics(sample, data).rhat_max == _rhat_max(sample)
        assert math.isnan(FitDiagnostics(0.0, 0.0, 0.0, 0.5, 0.0, 0.0).rhat_max)
