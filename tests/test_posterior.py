"""Sampler and diagnostics tests.

The expensive recovery checks (full draw counts, KS calibration, exact
LOO refits) live in the acceptance suite; these tests exercise the same
code paths at unit scale.
"""

import dataclasses
import math
import warnings
from dataclasses import astuple
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    cic,
    draw,
    log_likelihood,
    log_target as _log_target,
    lppd,
    psis_loo_per_point,
    rank_normal_ranks,
    stack_draws,
)
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtri

import anomix.model
import anomix.posterior
from anomix.model import (
    LOG_2PI,
    Dataset,
    PriorSpec,
    _embed_rows,
    _log_prior_arrays,
    conditional_cdf_rows,
    fused_moments,
)
from anomix.posterior import (
    BLOCK_ELEMENTS,
    FitDiagnostics,
    PosteriorSample,
    SamplerSettings,
    _LockstepTarget,
    _PARTS,
    _fitted_prior,
    _lppd,
    _point_blocks,
    _psis_loo,
    _quantiles,
    _rank_normal,
    _rhat_max,
    _split_rhat,
    fit_diagnostics,
    psis_loo,
    sample_posterior,
    sample_posteriors,
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
    return stack_draws(draws, 0.25, 1, 0)


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
        for name in ("experts", "mixing", "behavior"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        data = linear_data(40, seed=1)
        a = sample_posterior(data, PriorSpec(), 1, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=1))
        b = sample_posterior(data, PriorSpec(), 1, SamplerSettings(chains=1, iterations=60, burn_in=30, seed=2))
        assert a.experts[-1, 0, 0] != b.experts[-1, 0, 0]

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
        ints = sample.experts[:, 0, 0]
        slopes = sample.experts[:, 0, 1]
        sds = np.exp(sample.experts[:, 0, -1])
        assert abs(ints.mean() - 2.0) < 3 * ints.std()
        assert abs(slopes.mean() - 3.0) < 3 * slopes.std()
        assert abs(sds.mean() - 0.5) < 3 * sds.std()

    def test_draw_invariants(self, fitted):
        _, sample = fitted
        assert np.all(sample.mixing[:, -1] == 0.0)
        assert np.all(np.exp(sample.experts[..., -1]) > 0)

    def test_one_expert_proposes_the_experts_alone(self):
        # With one expert the behavior gate cannot move the likelihood: it
        # stays at the prior location, and each iteration makes one proposal.
        data = linear_data(40, seed=1)
        settings = SamplerSettings(chains=3, iterations=200, burn_in=100, seed=6)
        sample = sample_posterior(data, PriorSpec(gate_coeff_location=0.3), 1, settings)
        assert np.array_equal(sample.behavior, np.full((sample.n_draws, 2), 0.3))
        chains, kept = settings.chains, settings.iterations - settings.burn_in
        experts = sample.experts[:, 0].reshape(chains, kept, -1)
        # Each accepted step moves the experts; the first kept one moves them
        # from a burn-in state that the stack does not hold.
        moves = int((np.diff(experts, axis=1) != 0).any(axis=-1).sum())
        accepted = round(sample.acceptance_rate * chains * kept)
        assert 0 < moves <= accepted <= moves + chains

    def test_multi_expert_chains_run(self):
        data = linear_data(60, seed=3)
        sample = sample_posterior(
            data, PriorSpec(), 2, SamplerSettings(chains=1, iterations=200, burn_in=100, seed=4)
        )
        assert sample.n_draws == 100
        assert 0.0 < sample.acceptance_rate <= 1.0


class TestJointSampler:
    """Fitting several datasets in one lockstep run gives each the draws of a
    lone fit seeded ``seed + i``."""

    @pytest.mark.parametrize("n_experts", [1, 2, 3])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_equals_separate_fits(self, n_experts, chains, n):
        rng = np.random.default_rng(100 * n_experts + 10 * chains + n)
        datasets = [make_dataset(rng.normal(size=(30, n)), rng.normal(i, 1.0 + i, size=30)) for i in range(3)]
        settings = SamplerSettings(chains=chains, iterations=80, burn_in=40, seed=11)
        joint = sample_posteriors(datasets, PriorSpec(), n_experts, settings)
        for i, (data, together) in enumerate(zip(datasets, joint)):
            alone = sample_posterior(data, PriorSpec(), n_experts, dataclasses.replace(settings, seed=11 + i))
            for name in ("experts", "mixing", "behavior"):
                assert np.array_equal(getattr(together, name), getattr(alone, name)), (i, name)
            assert together.acceptance_rate == alone.acceptance_rate
            assert (together.seed, together.chain_count) == (alone.seed, alone.chain_count) == (11 + i, chains)

    @pytest.mark.parametrize("rows, n", [(30, 1), (31, 2)])
    def test_refuses_datasets_of_other_shapes(self, rows, n):
        rng = np.random.default_rng(3)
        datasets = [make_dataset(rng.normal(size=(30, 2)), rng.normal(size=30)),
                    make_dataset(rng.normal(size=(rows, n)), rng.normal(size=rows))]
        with pytest.raises(ValueError, match="row and covariate counts"):
            sample_posteriors(datasets, PriorSpec(), 2, SMALL)

    def test_initial_density_is_checked_per_dataset(self):
        # The overflow is reported by the sampler's own error alone, not by a NumPy warning first.
        rng = np.random.default_rng(4)
        healthy = make_dataset(rng.normal(size=(20, 1)), rng.normal(size=20))
        overflowing = make_dataset(rng.normal(size=(20, 1)), np.full(20, 1e200))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="^dataset 1: non-finite posterior density at initialization"):
                sample_posteriors([healthy, overflowing], PriorSpec(), 2, SMALL)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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

    @pytest.mark.parametrize("s, n", [(800, 21), (800, 201), (5000, 7), (8000, 41), (20000, 3)])
    def test_blocks_reduce_as_the_whole_matrix(self, s, n):
        """Blocks of points that would leave one point over give the whole matrix's bits.  Zeroing
        the other points' log densities makes the sum the last point's term alone, whose last bit
        a sum over many points can round away."""
        assert n % max(2, BLOCK_ELEMENTS // s) == 1
        for seed in range(5):
            ll = np.random.default_rng(seed).normal(-2.0, 3.0, size=(s, n))
            for _ in range(2):
                assert _lppd(ll).hex() == float(np.sum(logsumexp(ll, axis=0) - math.log(s))).hex()
                ll[:, :-1] = 0.0


class TestPointBlocks:
    @given(st.integers(1, 40_000), st.integers(1, 500))
    def test_blocks_tile_the_points_two_or_more_wide(self, s, n):
        """Blocks of ``BLOCK_ELEMENTS // s`` points, at least two, tile the points in order; a
        single point left over joins the last block, and a lone point is its own block."""
        blocks = _point_blocks(s, n)
        step = max(2, BLOCK_ELEMENTS // s)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
        widths = [b.stop - b.start for b in blocks]
        if n == 1:
            assert widths == [1]
        else:
            assert set(widths[:-1]) <= {step} and 2 <= widths[-1] <= step + 1


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


@st.composite
def loglik_arrays(draw):
    """(draws x points) log densities: heavy or light tails, optionally
    repeated draws (tied rows, as Metropolis chains give), constant or
    nearly constant columns and columns with only a few distinct largest
    weights."""
    s = draw(st.sampled_from([40, 99, 100, 160, 224, 225, 400, 800]))
    step = max(1, BLOCK_ELEMENTS // s)
    n = draw(st.one_of(st.just(1), st.integers(2, min(3 * step // 2, 300))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = rng.uniform(0.05, 4.0)
    if draw(st.booleans()):
        ll = -scale * np.abs(rng.standard_t(2.0, size=(s, n)))
    else:
        ll = rng.normal(-1.0, scale, size=(s, n))
    if draw(st.booleans()):
        ll = ll[np.sort(rng.integers(0, max(1, s // draw(st.sampled_from([2, 5, 20]))), size=s))]
    flat = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    # Constant columns, or ones whose spread (below 1e-12) PSIS ignores.
    ll[:, flat] = -1.5 + draw(st.sampled_from([0.0, 1e-13])) * rng.standard_normal((s, flat.sum()))
    for j in np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.3]))):
        # A few draws hold the largest weights, distinct or all equal, and
        # every other draw ties with the threshold.
        top = rng.choice(s, size=int(rng.integers(1, 9)), replace=False)
        ll[:, j] = -1.0
        ll[top, j] = -2.0 - (rng.uniform(0.5, 3.0, len(top)) if rng.random() < 0.5 else 1.0)
    return ll


class TestBatchedPsisMatchesPerPoint:
    @settings(max_examples=60, deadline=None)
    @given(loglik_arrays())
    def test_estimate_se_and_k_hat(self, ll):
        s, n = ll.shape
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate, se, k_hat = _psis_loo(ll)
        disabled = [w for w in caught if "PSIS smoothing disabled" in str(w.message)]
        assert len(disabled) == (1 if s < 100 else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_estimate, want_se, want_k = psis_loo_per_point(ll)
        np.testing.assert_allclose(estimate, want_estimate, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(se, want_se, rtol=1e-12, atol=1e-12)
        assert k_hat.shape == (n,)
        assert np.array_equal(np.isnan(k_hat), np.isnan(want_k))
        np.testing.assert_allclose(k_hat, want_k, rtol=0.0, atol=1e-12, equal_nan=True)
        if s < 100:
            assert np.isnan(k_hat).all()

    def test_cases_the_guards_catch(self):
        # Column 0 is constant, column 1 has three distinct largest weights,
        # column 2 six equal ones, and column 3 a smooth tail.
        rng = np.random.default_rng(0)
        ll = np.full((225, 4), -1.0)
        ll[:3, 1] = [-3.0, -3.5, -4.0]
        ll[:6, 2] = -3.0
        ll[:, 3] = rng.normal(size=225)
        _, _, k_hat = _psis_loo(ll)
        assert np.isnan(k_hat[:3]).all() and np.isfinite(k_hat[3])
        assert k_hat[3] == pytest.approx(psis_loo_per_point(ll)[2][3], abs=1e-12)


class TestRankNormal:
    @pytest.mark.parametrize("shape", [(2, 8, 3), (4, 50, 5), (1, 7, 1)])
    def test_matches_per_column_unique(self, shape):
        rng = np.random.default_rng(sum(shape))
        draws = rng.integers(-3, 4, size=shape).astype(float)  # heavy ties
        draws[..., 0] = np.round(rng.normal(size=shape[:-1]), 1)
        draws[0, 0, -1] = -0.0  # equal to 0.0, so one tie group with it
        flat = draws.reshape(-1, shape[-1])
        want = ndtri((rank_normal_ranks(flat) - 0.375) / (len(flat) + 0.25)).reshape(shape)
        # The package's AS241 ndtri is within 8 ulp of scipy's; a rank off by one moves a score far more.
        assert np.all(np.abs(_rank_normal(draws) - want) <= 8 * np.spacing(np.abs(want)))


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
        # The sampler moves log sd, so its target is the likelihood plus the
        # prior over log sd, which is the prior over sd plus the Jacobian sum(log sd).
        rng = np.random.default_rng(40 + n_experts)
        data = make_dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        prior = PriorSpec(mean_coeff_scale=2.0, gate_coeff_scale=0.7, noise_log_location=0.3, noise_log_scale=0.6)
        chains = 4
        experts = rng.normal(size=(chains, n_experts, 4))
        mixing = rng.normal(size=(chains, n_experts, 3))
        mixing[:, -1] = 0.0
        behavior = rng.normal(size=(chains, 3))
        target = _log_target(experts, mixing, behavior, _embed_rows(data.covariates), data.responses, prior)
        sample = PosteriorSample(experts, mixing, behavior, 0.25, chains, 0)
        for c in range(chains):
            point, gate, coeffs_b = draw(sample, c)
            parts = dict(coeffs=point[:, :-1], log_sds=point[:, -1], gate_matrix=gate, behavior_coeffs=coeffs_b)
            expected = log_likelihood(draw(sample, c), data) + _log_prior_arrays(prior, **parts)
            if n_experts == 1:  # the frozen behavior gate's prior term is left out
                z = np.abs(behavior[c] - prior.gate_coeff_location) / prior.gate_coeff_scale
                expected -= np.sum(-np.log(2.0 * prior.gate_coeff_scale) - z)
            assert target[c] == pytest.approx(expected, rel=1e-9)


def reference_log_target(experts, mixing, behavior, phi, y, prior):
    """The sampler's log target written out with NumPy ``axis=-1``
    reductions and scipy's logsumexp over the expert axis.  At M = 1 the
    frozen behavior gate carries no prior term.  The behavior gate is the
    model's ``1 / (1 + exp(-t))``, whose distance from scipy's ``expit``
    ``TestInPlaceHelpers`` bounds, so that this reference pins how the
    target is assembled."""
    coeffs, log_sds = experts[..., :-1], experts[..., -1]
    sds = np.exp(log_sds)
    logits = phi @ np.swapaxes(mixing, -1, -2)
    logits -= logits.max(axis=-1, keepdims=True)
    alpha = np.exp(logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    beta = 1.0 / (1.0 + np.exp(-(phi @ behavior[..., None])))
    means = phi @ np.swapaxes(coeffs, -1, -2)
    variances = sds**2
    blend_mean = (alpha * means).sum(axis=-1, keepdims=True)
    blend_var = alpha @ variances[..., None]
    fused = beta * means + (1.0 - beta) * blend_mean
    fused_sds = np.sqrt(beta * variances[..., None, :] + (1.0 - beta) * blend_var)
    z = (y[:, None] - fused) / fused_sds
    comp = -0.5 * z * z - np.log(fused_sds) - 0.5 * LOG_2PI
    with np.errstate(divide="ignore"):
        ll = logsumexp(comp + np.log(alpha), axis=-1).sum(axis=-1)

    def laplace(values, loc, scale):
        return -np.log(2.0 * scale) - np.abs(values - loc) / scale

    z = (log_sds - prior.noise_log_location) / prior.noise_log_scale
    terms = (
        laplace(coeffs, prior.mean_coeff_location, prior.mean_coeff_scale),
        -np.log(prior.noise_log_scale) - 0.5 * LOG_2PI - 0.5 * z * z,
        laplace(mixing[..., :-1, :], prior.gate_coeff_location, prior.gate_coeff_scale),
    ) + ((laplace(behavior, prior.gate_coeff_location, prior.gate_coeff_scale),) if mixing.shape[-2] > 1 else ())
    return ll + sum(t.reshape(*log_sds.shape[:-1], -1).sum(axis=-1) for t in terms)


def random_states(rng, chains, n_experts, n):
    """Chain states (C, M, n + 2), (C, M, n + 1) with a zero last row, (C, n + 1)."""
    experts = rng.normal(size=(chains, n_experts, n + 2))
    mixing = rng.normal(size=(chains, n_experts, n + 1))
    mixing[:, -1] = 0.0
    return experts, mixing, rng.normal(size=(chains, n + 1))


class TestLogTargetParts:
    PRIOR = PriorSpec(mean_coeff_scale=2.0, gate_coeff_scale=0.7, noise_log_location=0.3, noise_log_scale=0.6)

    @pytest.mark.parametrize("n_experts", range(1, 8))
    def test_bitwise_equal_to_reference(self, n_experts):
        rng = np.random.default_rng(60 + n_experts)
        for chains in range(1, 5):
            for n in range(4):
                phi = _embed_rows(rng.normal(size=(30, n)))
                y = 2.0 * rng.normal(size=30)
                state = random_states(rng, chains, n_experts, n)
                got = _log_target(*state, phi, y, self.PRIOR)
                assert np.array_equal(got, reference_log_target(*state, phi, y, self.PRIOR)), (chains, n)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_single_expert_target_is_unchanged_by_the_fitted_prior(self, scale):
        # The sampler fits one expert under _fitted_prior, and run_trial compares models by it,
        # so the target must not read the gate scale that it drops, wherever the gates are.
        rng = np.random.default_rng(80)
        prior = dataclasses.replace(self.PRIOR, gate_coeff_scale=scale)
        for chains in range(1, 4):
            phi, y = _embed_rows(rng.normal(size=(30, 2))), rng.normal(size=30)
            state = random_states(rng, chains, 1, 2)
            got = _log_target(*state, phi, y, _fitted_prior(prior, 1))
            assert np.array_equal(got, _log_target(*state, phi, y, prior)), chains

    @pytest.mark.parametrize("n_experts", [1, 3])
    def test_cache_matches_a_fresh_evaluation(self, n_experts):
        # Every block is proposed each round and taken on alternate chains,
        # so each block sees accepted and rejected proposals on every chain.
        rng = np.random.default_rng(70 + n_experts)
        chains, n = 3, 2
        phi, y = _embed_rows(rng.normal(size=(40, n))), rng.normal(size=40)
        target = _LockstepTarget(dict(zip(_PARTS, random_states(rng, chains, n_experts, n))), phi, y, self.PRIOR)
        for round_ in range(6):
            for name in _PARTS:
                moved = target.state[name] + 0.3 * rng.normal(size=target.state[name].shape)
                if name == "mixing":
                    moved[:, -1] = 0.0
                new, part = target.evaluate(name, moved)
                target.accept(name, range(round_ % 2, chains, 2), moved, part, new)
        fresh = _LockstepTarget({name: arr.copy() for name, arr in target.state.items()}, phi, y, self.PRIOR)
        assert np.array_equal(target.current, _log_target(**target.state, phi=phi, y=y, prior=self.PRIOR))
        assert np.array_equal(target.current, fresh.current)

        def cached_arrays(t):
            return [*t.parts.items(), ("blend", t.blend)]

        for (name, cached), (_, recomputed) in zip(cached_arrays(target), cached_arrays(fresh), strict=True):
            assert len(cached) == len(recomputed), name
            for a, b in zip(cached, recomputed):
                assert np.array_equal(a, b), name


def stack_from_chains(chains):
    """A one-expert, no-covariate stack whose expert intercept holds
    ``chains`` (C, N) and whose other parameters are iid."""
    c, n = chains.shape
    rng = np.random.default_rng(8)
    return PosteriorSample(
        np.concatenate([chains.reshape(-1, 1, 1), np.log(rng.uniform(0.5, 2.0, size=(c * n, 1, 1)))], axis=-1),
        np.zeros((c * n, 1, 1)),
        rng.normal(size=(c * n, 1)),
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
            np.concatenate([sample.experts[..., :-1] ** 3, np.log1p(np.exp(sample.experts[..., -1:]))], axis=-1),
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
        sample = PosteriorSample(sample.experts, sample.mixing, sample.behavior, 0.25, chain_count, 0)
        assert math.isnan(_rhat_max(sample))

    def test_one_expert_reads_the_expert_coefficients_and_sds_alone(self, fitted):
        def experts_only(sample):
            columns = sample.experts.reshape(sample.n_draws, -1)
            return np.nanmax(_split_rhat(columns.reshape(sample.chain_count, -1, columns.shape[1])))

        _, sample = fitted
        assert _rhat_max(sample) == experts_only(sample)
        # A behavior chain far from the others moves nothing at one expert
        # and the reading at two.
        stack = stack_from_chains(np.random.default_rng(5).normal(size=(4, 300)))
        shift = np.repeat([0.0, 0.0, 0.0, 5.0], 300)[:, None]
        shifted = dataclasses.replace(stack, behavior=stack.behavior + shift)
        assert _rhat_max(shifted) == _rhat_max(stack) == experts_only(stack) < 1.01
        two = dataclasses.replace(
            shifted,
            experts=np.repeat(stack.experts, 2, axis=1),
            mixing=np.zeros((1200, 2, 1)),
        )
        assert _rhat_max(two) > 1.01

    def test_reported_by_fit_diagnostics(self, fitted):
        data, sample = fitted
        assert fit_diagnostics(sample, data).rhat_max == _rhat_max(sample)
        assert math.isnan(FitDiagnostics(0.0, 0.0, 0.0, 0.5, 0.0, 0.0).rhat_max)


class TestScipyKernelParity:
    """Swapping the in-repo log-sum-exp kernel back to scipy's moves no draw
    and no diagnostic by a single bit."""

    @pytest.mark.parametrize("n_experts", [1, 2, 3])
    def test_draws_and_diagnostics_bitwise_equal(self, n_experts, monkeypatch):
        data = linear_data(50, seed=2)
        settings = SamplerSettings(chains=2, iterations=200, burn_in=100, seed=7)

        def fit():
            sample = sample_posterior(data, PriorSpec(), n_experts, settings)
            return sample, fit_diagnostics(sample, data)

        ours, ours_diag = fit()
        calls = []

        def scipy_kernel(a, axis=-1):
            calls.append((axis, a.shape))
            return logsumexp(a, axis=axis)

        monkeypatch.setattr(anomix.model, "_logsumexp", scipy_kernel)
        monkeypatch.setattr(anomix.posterior, "_logsumexp", scipy_kernel)
        theirs, theirs_diag = fit()
        # The sampler reduces (chains, M, rows) over its expert axis -2, LPPD
        # the (draws, rows) log densities over draws, PSIS-LOO one block of
        # rows' smoothed weights over draws (twice) and the GPD profile's
        # log-likelihoods over a grid of at least 30 values.
        assert (-2, (settings.chains, n_experts, len(data))) in calls
        assert calls.count((0, (theirs.n_draws, len(data)))) == 3
        assert any(axis == 0 and shape[0] >= 30 and shape != (theirs.n_draws, len(data)) for axis, shape in calls)
        for name in ("experts", "mixing", "behavior"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        assert ours.acceptance_rate == theirs.acceptance_rate
        assert np.array_equal(astuple(ours_diag), astuple(theirs_diag), equal_nan=True)


# The coverage grid's interval ends at 20 levels, as ``coverage_counts`` asks for them.
_LEVELS = np.arange(1, 20) / 20
COVERAGE_PROBS = list(np.concatenate([(1.0 - _LEVELS) / 2.0, (1.0 + _LEVELS) / 2.0]))

probabilities = st.one_of(
    st.just([0.0, 0.5, 1.0]),
    st.just(COVERAGE_PROBS),
    st.lists(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0, 1 / 3]), min_size=1, max_size=8),  # repeats, any order
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)


@st.composite
def draw_matrices(draw):
    """(draws x columns) matrices mixing continuous values, ties, zeros of
    both signs and infinities, with NaN in some columns."""
    n, cols = draw(st.integers(1, 900)), draw(st.integers(0, 40))
    kinds = sorted(draw(st.sets(st.sampled_from(["normal", "ties", "zeros", "infinities"]), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = {
        "normal": rng.normal(size=(n, cols)),
        "ties": rng.integers(-2, 3, size=(n, cols)).astype(float),
        "zeros": rng.choice([-0.0, 0.0], size=(n, cols)),
        "infinities": rng.choice([-np.inf, np.inf], size=(n, cols)),
    }
    x = np.choose(rng.integers(len(kinds), size=(n, cols)), [pools[k] for k in kinds])
    nan_cols = rng.random(cols) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    x[rng.integers(n, size=cols)[nan_cols], np.flatnonzero(nan_cols)] = np.nan
    return x


class TestQuantiles:
    """``_quantiles`` is ``np.quantile(..., axis=0)`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(x=draw_matrices(), probs=probabilities)
    @example(x=np.array([[np.inf], [np.inf]]), probs=[0.0, 0.5, 1.0])
    @example(x=np.array([[-np.inf, 1.0], [np.inf, 1.0]]), probs=[0.25, 1.0])
    @example(x=np.array([[np.inf, -0.0, np.nan]]), probs=[0.5, 1.0])
    @example(x=np.array([[-0.0], [-0.0], [2.0]]), probs=[0.0, 0.25, 1.0])
    @example(x=np.arange(10.0)[:, None] * [1.0, -1.0], probs=COVERAGE_PROBS)
    def test_matches_numpy(self, x, probs):
        with np.errstate(invalid="ignore"):
            got, want = _quantiles(x.copy(), probs), np.quantile(x, probs, axis=0)
        assert got.shape == want.shape == (len(probs), x.shape[1])
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        # Where a column holds zeros of both signs, a sort and NumPy's
        # partition may leave them in different orders, and so a zero
        # result with either sign: only there is the sign not compared.
        zeros = x == 0.0
        mixed = (zeros & np.signbit(x)).any(axis=0) & (zeros & ~np.signbit(x)).any(axis=0)
        got, want = (np.where(mixed & (q == 0.0), 0.0, q) for q in (got, want))
        np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
