"""The draw stack: layout, validation, archive round trip, every batched
consumer against a loop over the stack's draws, one parameter point at a time,
through the row-batched model functions, and the memory of the passes over
the whole stack."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from oracles import cic, draw, lppd, pit_rows, posterior_predictive_cdf, sample_predictive_three_arrays, stack_draws

from anomix.anomaly import (
    build_sum_dist,
    default_decay,
    exp_weights,
    score_series,
    sum_cdf,
)
from anomix.explain import ExplanationMap, gate_geometry, render_map
from anomix.model import (
    Dataset,
    PriorSpec,
    conditional_cdf_rows,
    conditional_logpdf_rows,
    fused_moments,
    sample_conditional,
)
from anomix.pipeline import load_posterior, save_posterior
from anomix.posterior import (
    BLOCK_ELEMENTS,
    PosteriorSample,
    SamplerSettings,
    _psis_loo,
    _quantiles,
    fit_diagnostics,
    psis_loo,
    sample_posterior,
    sample_predictive,
)
from anomix.selection import coverage_counts

TOL = dict(rtol=1e-12, atol=1e-12)


def random_stack(rng, n_draws, n_experts, n_covariates):
    na = n_covariates + 1
    mixing = rng.normal(size=(n_draws, n_experts, na))
    mixing[:, -1] = 0.0
    coeffs = rng.normal(size=(n_draws, n_experts, na))
    experts = np.concatenate([coeffs, np.log(rng.uniform(0.3, 2.0, size=(n_draws, n_experts, 1)))], axis=-1)
    return PosteriorSample(experts, mixing, rng.normal(size=(n_draws, na)), 0.25, 1, 0)


def random_rows(rng, n_rows, n_covariates):
    x = rng.normal(size=(n_rows, n_covariates))
    y = 2.0 * rng.normal(size=n_rows)
    ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(n_rows) * np.timedelta64(3600, "s")
    return Dataset(x, y, ts)


def draws_of(sample):
    return [draw(sample, s) for s in range(sample.n_draws)]


@st.composite
def stacks(draw):
    """A random stack and data whose draw count is not a multiple of the block size."""
    n_experts = draw(st.sampled_from([1, 2, 3]))
    n_covariates = draw(st.integers(1, 2))
    n_rows = draw(st.integers(30, 60))
    step = BLOCK_ELEMENTS // (n_rows * n_experts)
    n_draws = step + draw(st.integers(1, step - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_stack(rng, n_draws, n_experts, n_covariates), random_rows(rng, n_rows, n_covariates)


@st.composite
def predictive_cases(draw):
    """A stack of one to four experts and its covariate rows, possibly none, with a draw count
    that leaves the last block of draws partial."""
    n_experts = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from([0, 1, 5, 33, 70]))
    step = BLOCK_ELEMENTS // max(1, n_rows * n_experts)
    n_draws = draw(st.integers(0, 2)) * step + draw(st.integers(1, step - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_stack(rng, n_draws, n_experts, 1), rng.normal(size=(n_rows, 1))


class TestLayout:
    def test_from_draws_and_draw_invert(self):
        sample = random_stack(np.random.default_rng(0), 7, 3, 2)
        back = stack_draws(draws_of(sample), 0.25, 1, 0)
        for name in ("experts", "mixing", "behavior"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sample, name))
        assert (sample.n_draws, sample.n_experts) == (7, 3)

    @pytest.mark.parametrize("chains", [2, 3])
    @pytest.mark.parametrize("n_experts", [1, 2, 3])
    def test_chains_are_contiguous_blocks(self, n_experts, chains):
        data = random_rows(np.random.default_rng(1), 40, 1)
        fewer, more = (
            sample_posterior(data, PriorSpec(), n_experts, SamplerSettings(chains=c, iterations=60, burn_in=30, seed=3))
            for c in (chains - 1, chains)
        )
        # Chain c runs on child c of the seed sequence, so the chains of a
        # shorter run are the leading chains of a longer one, and each chain
        # is one contiguous block of 30 draws along the draw axis.
        for name in ("experts", "mixing", "behavior"):
            short, long = getattr(fewer, name), getattr(more, name)
            by_chain = long.reshape(chains, 30, *long.shape[1:])
            np.testing.assert_array_equal(by_chain[: chains - 1].reshape(short.shape), short)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("experts", np.ones((4, 2, 3)), "shapes"),
            ("behavior", np.ones((4, 2)), "shapes"),
            ("experts", np.full((4, 2, 4), np.nan), "finite"),
            ("mixing", np.ones((4, 3, 3)), "shapes"),
            ("mixing", np.ones((4, 2, 3)), "last gate row"),
            ("experts", np.ones((0, 2, 4)), "shapes"),
            ("experts", np.ones((4, 2)), "shapes"),
        ],
    )
    def test_validation(self, field, value, message):
        sample = random_stack(np.random.default_rng(2), 4, 2, 2)
        arrays = {name: getattr(sample, name) for name in ("experts", "mixing", "behavior")}
        arrays[field] = value
        with pytest.raises(ValueError, match=message):
            PosteriorSample(**arrays, acceptance_rate=0.25, chain_count=1, seed=0)

    @pytest.mark.parametrize("rate", [1.7, -0.1, math.nan, math.inf])
    def test_acceptance_rate_outside_the_unit_interval_is_refused(self, rate):
        sample = random_stack(np.random.default_rng(2), 4, 2, 2)
        with pytest.raises(ValueError, match="does not lie in \\[0, 1\\]"):
            dataclasses.replace(sample, acceptance_rate=rate)


class TestArchive:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        chain_count=st.integers(1, 2**63 - 1),
        acceptance_rate=st.floats(0.0, 1.0),
        n_draws=st.integers(1, 60),
        n_experts=st.integers(1, 4),
        n_covariates=st.integers(0, 3),
    )
    def test_load_save_round_trip(
        self, tmp_path_factory, seed, chain_count, acceptance_rate, n_draws, n_experts, n_covariates
    ):
        sample = random_stack(np.random.default_rng(seed % 2**32), n_draws, n_experts, n_covariates)
        sample = dataclasses.replace(sample, acceptance_rate=acceptance_rate, chain_count=chain_count, seed=seed)
        path = tmp_path_factory.mktemp("archive") / "posterior.npz"
        save_posterior(sample, path)
        with np.load(path) as archive:
            assert sorted(archive.files) == ["acceptance_rate", "behavior", "experts", "header", "mixing"]
        back = load_posterior(path)
        for name in ("experts", "mixing", "behavior"):
            a, b = getattr(back, name), getattr(sample, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert np.float64(back.acceptance_rate).tobytes() == np.float64(acceptance_rate).tobytes()
        assert (back.chain_count, back.seed) == (chain_count, seed)
        assert type(back.chain_count) is int and type(back.seed) is int


def stack_moments(sample, X) -> list:
    """``(alpha, means, sds)`` of every draw of ``sample`` at the rows of ``X``, each (draws, M, rows)."""
    blocks = [arrays for _, *arrays in sample.moment_blocks(X)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


class TestRowBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 80), st.data())
    def test_moments_of_a_row_block_equal_the_whole_batch(self, n_experts, n_covariates, n_rows, data):
        """The fused moments of any contiguous block of at least two rows are bitwise those of the
        same rows in the whole batch.  One row alone may round differently (ROADMAP item 8)."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sample = random_stack(rng, data.draw(st.integers(1, 30)), n_experts, n_covariates)
        x = rng.normal(size=(n_rows, n_covariates))
        start = data.draw(st.integers(0, n_rows - 2))
        stop = data.draw(st.integers(start + 2, n_rows))
        for whole, block in zip(stack_moments(sample, x), stack_moments(sample, x[start:stop])):
            assert whole[..., start:stop].tobytes() == block.tobytes()


class _Replay:
    """Hands out pre-drawn variates, one draw's row per call."""

    def __init__(self, uniforms, normals):
        self._uniforms = iter(uniforms)
        self._normals = iter(normals)

    def random(self, size):
        return next(self._uniforms)

    def standard_normal(self, size):
        return next(self._normals)


class TestBatchedMatchesDrawLoop:
    @settings(max_examples=6, deadline=None)
    @given(stacks())
    def test_diagnostics(self, case):
        sample, data = case
        assert sample.n_draws % (BLOCK_ELEMENTS // (len(data) * sample.n_experts)) != 0
        draws = draws_of(sample)
        ll = np.stack([conditional_logpdf_rows(d, data.covariates, data.responses) for d in draws])
        u = np.stack([conditional_cdf_rows(d, data.covariates, data.responses) for d in draws])

        expected_lppd = float(np.sum(logsumexp(ll, axis=0) - math.log(len(draws))))
        np.testing.assert_allclose(lppd(sample, data), expected_lppd, **TOL)
        for got, want in zip(psis_loo(sample, data), _psis_loo(ll)):
            np.testing.assert_allclose(got, want, **TOL)
        per_draw = np.mean((u >= 0.025) & (u <= 0.975), axis=1)
        np.testing.assert_allclose(cic(sample, data), (per_draw.mean(), per_draw.std(ddof=1)), **TOL)
        diag = fit_diagnostics(sample, data)
        np.testing.assert_allclose(
            (diag.lppd, diag.psis_loo, diag.cic95), (expected_lppd, _psis_loo(ll)[0], per_draw.mean()), **TOL
        )
        np.testing.assert_allclose(
            posterior_predictive_cdf(sample, data.covariates, data.responses), u.mean(axis=0), **TOL
        )

    @settings(max_examples=6, deadline=None)
    @given(stacks(), st.integers(0, 2**32 - 1))
    def test_sample_predictive(self, case, seed):
        sample, data = case
        got = sample_predictive(sample, data.covariates, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        shape = (sample.n_draws, len(data))
        replay = _Replay(rng.random(shape), rng.standard_normal(shape))
        want = np.stack([sample_conditional(d, data.covariates, replay)[0] for d in draws_of(sample)])
        np.testing.assert_allclose(got, want, **TOL)

    @settings(max_examples=25, deadline=None)
    @given(predictive_cases(), st.integers(0, 2**32 - 1))
    def test_sample_predictive_matches_three_arrays(self, case, seed):
        """Drawing each block's normals as the block is reached gives the draws, and leaves the
        generator in the state, of all uniforms and then all normals drawn at once."""
        sample, x = case
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample_predictive(sample, x, rng), sample_predictive_three_arrays(sample, x, ref)
        assert got.shape == want.shape == (sample.n_draws, len(x))
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    @settings(max_examples=6, deadline=None)
    @given(stacks(), st.integers(1, 4))
    def test_scores(self, case, k):
        sample, data = case
        series = score_series(data, sample, k)
        w = exp_weights(k + 1, default_decay(k))
        dist = build_sum_dist(w)
        pits, per_draw = [], []
        for d in draws_of(sample):
            u = pit_rows(d, data.covariates, data.responses)
            f = sum_cdf(dist, np.lib.stride_tricks.sliding_window_view(u, k + 1) @ w.weights)
            pits.append(u)
            per_draw.append(1.0 - 2.0 * np.minimum(f, 1.0 - f))
        # The score is the predictive PIT's: the draws' PIT rows averaged, then windowed and folded.
        f = sum_cdf(dist, np.lib.stride_tricks.sliding_window_view(np.mean(pits, axis=0), k + 1) @ w.weights)
        np.testing.assert_allclose(series.as_values, 1.0 - 2.0 * np.minimum(f, 1.0 - f), **TOL)
        np.testing.assert_allclose(series.theta_low, np.quantile(per_draw, 0.05, axis=0), **TOL)
        np.testing.assert_allclose(series.theta_high, np.quantile(per_draw, 0.95, axis=0), **TOL)

    @settings(max_examples=6, deadline=None)
    @given(stacks())
    def test_maps(self, case):
        sample, data = case
        draws = draws_of(sample)
        if sample.n_experts == 2:  # one gate direction: full row rank almost surely
            expected_gate = np.mean([gate for _, gate, _ in draws], axis=0)[:-1]
            np.testing.assert_allclose(gate_geometry(sample).slopes, expected_gate[:, 1:], **TOL)

        points = data.covariates
        skeleton = ExplanationMap(grid=np.zeros((len(points), 1)), points=points, arrows=np.zeros((data.n, 1)))
        rendered = render_map(skeleton, sample)
        act, first, second = 0.0, 0.0, 0.0
        for d in draws:
            alpha, means, sds = fused_moments(d, points)
            m = (alpha * means).sum(axis=1)
            v = (alpha * (sds**2 + means**2)).sum(axis=1) - m**2
            act, first, second = act + alpha, first + m, second + (v + m**2)
        mean = first / len(draws)
        np.testing.assert_allclose(rendered.activations, act / len(draws), **TOL)
        np.testing.assert_allclose(rendered.predictive_mean, mean, **TOL)
        np.testing.assert_allclose(
            rendered.predictive_sd, np.sqrt(np.maximum(second / len(draws) - mean**2, 0.0)), **TOL
        )


class TestPredictiveScore:
    """The predictive-PIT score where the draws' PIT rows need no averaging."""

    def per_draw_scores(self, sample, data, k):
        w = exp_weights(k + 1, default_decay(k))
        dist = build_sum_dist(w)
        scores = []
        for d in draws_of(sample):
            u = pit_rows(d, data.covariates, data.responses)
            f = sum_cdf(dist, np.lib.stride_tricks.sliding_window_view(u, k + 1) @ w.weights)
            scores.append(1.0 - 2.0 * np.minimum(f, 1.0 - f))
        return np.array(scores)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_draw_band_is_its_score(self, seed):
        # The draw's PIT is the predictive PIT, so the score is the draw's bit
        # for bit.  The band folds the CDF at the mirror point c - |q - c|, c
        # the centre of the support, which the law's symmetry makes equal to
        # within the table's last bits.
        rng = np.random.default_rng(seed)
        sample, data, k = random_stack(rng, 1, 1 + seed % 3, 2), random_rows(rng, 40, 2), 2 * seed
        series = score_series(data, sample, k)
        (own,) = self.per_draw_scores(sample, data, k)
        np.testing.assert_array_equal(series.as_values, own)
        for band in (series.theta_low, series.theta_high):
            np.testing.assert_allclose(band, own, rtol=0.0, atol=2e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_draws_score_as_the_mean_of_their_scores(self, seed):
        rng = np.random.default_rng(seed)
        one, data, k = random_stack(rng, 1, 1 + seed % 3, 2), random_rows(rng, 40, 2), 2 * seed
        same = PosteriorSample(*(np.repeat(a, 8, axis=0) for a in (one.experts, one.mixing, one.behavior)), 0.25, 1, 0)
        series = score_series(data, same, k)
        np.testing.assert_array_equal(series.as_values, score_series(data, one, k).as_values)
        mean_of_scores = self.per_draw_scores(same, data, k).mean(axis=0)
        np.testing.assert_allclose(series.as_values, mean_of_scores, rtol=0.0, atol=1e-15)


def traced_peak(run) -> int:
    """Bytes ``run()`` adds at its peak; a first, untraced call fills any cache it keeps."""
    run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPassMemory:
    """A pass over the whole stack may hold one (draws x points) array, its result or the matrix
    it reduces, plus block temporaries that ``BLOCK_ELEMENTS`` bounds: the peak it adds, traced
    at 4000 draws, must stay within that array and 16 blocks of float64."""

    N_DRAWS, N_ROWS, WINDOW_K = 4000, 200, 10

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(5)
        return random_stack(rng, self.N_DRAWS, 2, 2), random_rows(rng, self.N_ROWS, 2)

    def bound(self, n_points: int) -> int:
        return self.N_DRAWS * n_points * 8 + 16 * BLOCK_ELEMENTS * 8

    def test_fit_diagnostics(self, case):
        sample, data = case
        assert traced_peak(lambda: fit_diagnostics(sample, data)) <= self.bound(self.N_ROWS)

    def test_score_series(self, case):
        sample, data = case
        peak = traced_peak(lambda: score_series(data, sample, self.WINDOW_K))
        assert peak <= self.bound(self.N_ROWS - self.WINDOW_K)

    def test_predictive_band(self, case):
        sample, data = case

        def band():
            _quantiles(sample_predictive(sample, data.covariates, np.random.default_rng(0)), [0.05, 0.95])

        assert traced_peak(band) <= self.bound(self.N_ROWS)

    def test_coverage_counts(self, case):
        sample, data = case
        assert traced_peak(lambda: coverage_counts(sample, data, 20, rng=0)) <= self.bound(self.N_ROWS)
