"""Anomaly-scoring tests: weights, exact weighted-uniform-sum CDF, scores."""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    pit_rows,
    searchsorted_knots,
    stack_draws,
    sum_cdf_searchsorted,
)

from anomix import anomaly
from anomix.anomaly import (
    MAX_WINDOW,
    AnomalyScoreSeries,
    WeightVector,
    build_sum_dist,
    default_decay,
    exp_weights,
    score_series,
    sum_cdf,
)
from anomix.model import Dataset, sample_conditional
from anomix.posterior import PosteriorSample


def std_normal_model():
    return ModelParams(
        (ExpertParams(0.0, [0.0], 1.0),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def slope_model():
    return ModelParams(
        (ExpertParams(1.0, [2.0], 0.7),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def exact_sum_cdf(weights, qs):
    """Exact rational power-set CDF of float weights at float queries.

    Every float is an integer multiple of a power of two, so on the finest
    grid among the weights and queries the subset sums and the powers are
    exact integers."""
    fractions = [Fraction(float(x)) for x in (*weights, *qs)]
    scale = max(f.denominator for f in fractions)  # powers of two: a multiple of every other
    ws = [int(f * scale) for f in fractions[: len(weights)]]
    sums, signs = [0], [1]
    for w in ws:
        sums, signs = sums + [s + w for s in sums], signs + [-g for g in signs]
    n = len(ws)
    norm = math.factorial(n) * math.prod(ws)
    out = []
    for q in fractions[len(weights) :]:
        big_q = int(q * scale)
        total = sum(g * (big_q - s) ** n for s, g in zip(sums, signs) if s < big_q)
        out.append(float(min(max(Fraction(total, norm), Fraction(0)), Fraction(1))))
    return np.array(out)


def kept_weights(dist):
    """The weights ``build_sum_dist`` kept: it sheds the smallest."""
    return np.sort(dist.weights.weights)[dist.n - dist.degree :]


def irwin_hall_cdf(x, n):
    """Closed-form CDF of the sum of n independent U(0, 1)."""
    total = 0.0
    for j in range(int(math.floor(x)) + 1):
        total += (-1.0) ** j * math.comb(n, j) * (x - j) ** n
    return total / math.factorial(n)


def make_dataset(x, y):
    x = np.asarray(x, dtype=float)
    ts = np.datetime64("2024-01-01", "s") + np.arange(len(x)) * np.timedelta64(3600, "s")
    return Dataset(x, np.asarray(y, dtype=float), ts)


def stack_of(draws):
    return stack_draws(draws, 0.25, 1, 0)


def window_score(sample, xs, ys, decay=None):
    """Score of the single window that spans all rows, through score_series."""
    data = make_dataset(np.reshape(xs, (len(ys), -1)), ys)
    return score_series(data, sample, k=len(ys) - 1, decay=decay).as_values[0]


def folded(f):
    return 1.0 - 2.0 * min(f, 1.0 - f)


def folded_all(f):
    return 1.0 - 2.0 * np.minimum(f, 1.0 - f)


class TestExpWeights:
    def test_length_one(self):
        assert exp_weights(1, 3.0).weights.tolist() == [1.0]

    def test_geometric_normalization(self):
        w = exp_weights(2, math.log(2.0))
        np.testing.assert_allclose(w.weights, [1 / 3, 2 / 3], atol=1e-15)

    def test_small_decay_limit(self):
        w = exp_weights(5, 1e-12)
        np.testing.assert_allclose(w.weights, 0.2, atol=1e-9)

    def test_consecutive_ratio(self):
        lam = 0.7
        w = exp_weights(6, lam).weights
        np.testing.assert_allclose(w[1:] / w[:-1], math.exp(lam), rtol=1e-12)

    def test_newest_is_largest(self):
        w = exp_weights(4, 0.5).weights
        assert np.all(np.diff(w) > 0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            exp_weights(3, 0.0)

    def test_default_decay_keeps_one_percent(self):
        k = 7
        w = exp_weights(k + 1, default_decay(k)).weights
        assert w[0] / w[-1] == pytest.approx(0.01, rel=1e-9)

    def test_weight_vector_normalization_check(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.4])


class TestBuildSumDist:
    def test_singleton(self):
        d = build_sum_dist(WeightVector([1.0]))
        assert d.subset_sums.tolist() == [0.0, 1.0]
        assert d.subset_signs.tolist() == [1.0, -1.0]
        assert d.norm_const == 1.0

    def test_pair_enumeration(self):
        d = build_sum_dist(WeightVector([0.5, 0.5]))
        assert d.subset_sums.tolist() == [0.0, 0.5, 0.5, 1.0]
        assert sorted(d.subset_signs.tolist()) == [-1.0, -1.0, 1.0, 1.0]

    def test_build_time_n12(self):
        w = exp_weights(12, 0.3)
        start = time.perf_counter()
        build_sum_dist(w)
        assert time.perf_counter() - start < 0.05

    def test_window_cap(self):
        with pytest.raises(ValueError):
            build_sum_dist(exp_weights(MAX_WINDOW + 1, 0.1))

    @pytest.mark.parametrize(
        "field, change",
        [
            ("subset_sums", lambda s: s[[0, 2, 1, 3]]),
            ("subset_lows", lambda s: s[:-1]),
            ("subset_signs", lambda s: np.append(s, 1.0)),
        ],
        ids=["unsorted-sums", "short-lows", "long-signs"],
    )
    def test_knot_arrays_are_checked(self, field, change):
        # The knot lookup assumes sorted knots with one error and one sign each.
        d = build_sum_dist(WeightVector([0.25, 0.75]))
        with pytest.raises(ValueError):
            replace(d, **{field: change(getattr(d, field))})


class TestSumCdf:
    def test_nan_query_raises(self):
        d = build_sum_dist(exp_weights(6, default_decay(5)))
        with pytest.raises(ValueError, match="NaN"):
            sum_cdf(d, math.nan)

    def test_single_uniform_is_identity(self):
        d = build_sum_dist(WeightVector([1.0]))
        for q in np.linspace(0.0, 1.0, 21):
            assert sum_cdf(d, q) == pytest.approx(q, abs=1e-15)

    def test_irwin_hall_two_symmetry(self):
        d = build_sum_dist(WeightVector([0.5, 0.5]))
        assert sum_cdf(d, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_irwin_hall_two_value(self):
        # scaled Irwin-Hall: F(0.25) = (2 * 0.25)^2 / 2 = 0.125
        d = build_sum_dist(WeightVector([0.5, 0.5]))
        assert sum_cdf(d, 0.25) == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equal_weights_match_irwin_hall(self, n):
        d = build_sum_dist(WeightVector(np.full(n, 1.0 / n)))
        for q in np.linspace(0.0, 1.0, 101):
            assert abs(sum_cdf(d, q) - irwin_hall_cdf(n * q, n)) < 1e-9

    def test_matches_power_set_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 11))
            w = rng.random(n) + 0.05
            w /= w.sum()
            d = build_sum_dist(WeightVector(w))
            for q in rng.random(20):
                assert abs(sum_cdf(d, q) - exact_sum_cdf(w, [q])[0]) < 1e-12

    def test_monte_carlo_three_uniforms(self):
        rng = np.random.default_rng(23)
        w = np.full(3, 1.0 / 3.0)
        d = build_sum_dist(WeightVector(w))
        samples = np.sort(rng.random((10**6, 3)) @ w)
        grid = np.linspace(0.01, 0.99, 99)
        empirical = np.searchsorted(samples, grid) / len(samples)
        exact = sum_cdf(d, grid)
        assert np.abs(empirical - exact).max() < 0.004

    def test_boundaries_and_monotonicity(self):
        d = build_sum_dist(exp_weights(6, 0.9))
        assert sum_cdf(d, -0.1) == 0.0
        assert sum_cdf(d, 0.0) == 0.0
        assert sum_cdf(d, 1.0) == 1.0
        assert sum_cdf(d, 1.1) == 1.0
        qs = np.linspace(0, 1, 500)
        vals = sum_cdf(d, qs)
        assert np.all(np.diff(vals) >= 0)

    def test_queries_outside_the_support_build_no_table(self):
        # The Taylor table of 12 weights takes about 0.3 s to build; a first
        # call whose queries all lie outside the open support must not pay it.
        def dist():
            return build_sum_dist(exp_weights(12, default_decay(11)))

        lazy, built = dist(), dist()
        sum_cdf(built, built.support_end / 2)
        assert "taylor_table" in built.__dict__ and "_knot_index" in built.__dict__
        for q in (2.0, np.array([-0.5, 0.0, lazy.support_end, 2.0]), np.empty((0, 3))):
            got = sum_cdf(lazy, q)
            assert "taylor_table" not in lazy.__dict__ and "_knot_index" not in lazy.__dict__
            assert np.shape(got) == np.shape(q) and np.array_equal(got, sum_cdf(built, q))
        assert sum_cdf(lazy, 2.0) == 1.0

    @pytest.mark.parametrize("k", range(MAX_WINDOW))
    def test_every_accepted_window_matches_the_oracle(self, k):
        # window_k runs from 0 to MAX_WINDOW - 1; at the default decay no
        # weight is shed, so the oracle sees the same weights.  Queries fall
        # inside the support and on knots, the support's ends included.
        w = exp_weights(k + 1, default_decay(k))
        dist = build_sum_dist(w)
        assert dist.degree == k + 1
        rng = np.random.default_rng(k)
        knots = dist.subset_sums[rng.choice(len(dist.subset_sums), 3)]
        qs = np.concatenate([[0.0, dist.support_end], knots, dist.support_end * rng.random(6)])
        np.testing.assert_allclose(sum_cdf(dist, qs), exact_sum_cdf(w.weights, qs), rtol=0.0, atol=1e-14)

    def test_strongly_decaying_weights_stay_accurate(self):
        # The full weight product underflows double precision here; sub-ulp
        # weights are dropped so the formula stays well conditioned.
        rng = np.random.default_rng(99)
        w = exp_weights(12, 12.0)
        d = build_sum_dist(w)
        assert d.degree < 12
        samples = np.sort(rng.random((10**5, 12)) @ w.weights)
        for q in (0.1, 0.5, 0.9, 0.99):
            empirical = np.searchsorted(samples, q) / len(samples)
            assert sum_cdf(d, q) == pytest.approx(empirical, abs=0.01)


class TestExactSumCdf:
    """sum_cdf against an exact rational oracle.  Up to 12 kept weights every
    query inside the support is answered by the Taylor table, within 1e-14,
    also on windows whose alternating series cancels badly."""

    @pytest.mark.parametrize(
        "w, n_queries",
        [
            (exp_weights(6, 3.0), 40),
            (exp_weights(2, 30.0), 40),
            (exp_weights(9, default_decay(8)), 30),
            (exp_weights(11, default_decay(10)), 25),
            (exp_weights(12, default_decay(11)), 15),
        ],
        ids=["exp6-3", "exp2-30", "k8", "k10", "k11"],
    )
    def test_routed_queries_are_exact(self, w, n_queries):
        dist = build_sum_dist(w)
        assert dist.degree == len(w)
        rng = np.random.default_rng(n_queries)
        qs = dist.support_end * np.concatenate(
            [rng.random(n_queries - 10), 10.0 ** rng.uniform(-6, -1, 5), 1.0 - 10.0 ** rng.uniform(-6, -1, 5)]
        )
        np.testing.assert_allclose(sum_cdf(dist, qs), exact_sum_cdf(w.weights, qs), rtol=0.0, atol=1e-14)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_weights_are_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(n) + 0.01
        dist = build_sum_dist(WeightVector(w / w.sum()))
        assert dist.degree == n
        qs = dist.support_end * rng.random(6)
        np.testing.assert_allclose(sum_cdf(dist, qs), exact_sum_cdf(dist.weights.weights, qs), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n, decay", [(7, 8.0), (11, 3.0), (10, 3.0)])
    def test_fast_decays_are_exact_on_their_kept_weights(self, n, decay):
        # Unshed, these windows' tables are off by up to 0.9974, 0.61 and 0.0086:
        # the walk's double-double precision is too short for their cancellation.
        w = exp_weights(n, decay)
        dist = build_sum_dist(w)
        assert dist.degree < n and w.weights.sum() - kept_weights(dist).sum() <= 1e-6
        rng = np.random.default_rng(n)
        qs = dist.support_end * np.concatenate([rng.random(20), 10.0 ** rng.uniform(-6, -1, 5)])
        np.testing.assert_allclose(sum_cdf(dist, qs), exact_sum_cdf(kept_weights(dist), qs), rtol=0.0, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, MAX_WINDOW), decay=st.floats(0.01, 60.0), seed=st.integers(0, 2**32 - 1))
    @example(n=7, decay=8.0, seed=0)
    @example(n=12, decay=1.4, seed=0)  # conditioned only once one weight is shed
    @example(n=12, decay=default_decay(11), seed=0)
    def test_any_window_is_exact_and_symmetric(self, n, decay, seed):
        # The band reads the per-draw scores off |q - support_end / 2|, so it
        # needs F(q) + F(support_end - q) = 1 as much as it needs F itself.
        try:
            dist = build_sum_dist(exp_weights(n, decay))
        except ValueError as refused:
            assert "decay too fast" in str(refused)
            assume(False)
        rng = np.random.default_rng(seed)
        qs = dist.support_end * np.concatenate([rng.random(6), 10.0 ** rng.uniform(-6, -1, 2)])
        f = sum_cdf(dist, qs)
        np.testing.assert_allclose(f, exact_sum_cdf(kept_weights(dist), qs), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(f + sum_cdf(dist, dist.support_end - qs), 1.0, rtol=0.0, atol=1e-14)

    def test_window_that_shedding_cannot_condition_is_refused(self):
        # At 12 weights and decay 1.17 the smallest weight holds 1.8e-6 of the
        # mass, more than may be shed, and the walk misses the symmetry by
        # more than 4e-15 already at the middle pair of knots.
        with pytest.raises(ValueError, match="decay too fast for a window of 12"):
            build_sum_dist(exp_weights(12, 1.17))

    def test_mirrored_table_is_symmetric_and_exact(self):
        # At decay 1.2 the full walk misses the symmetry by 2.6e-14 in its
        # upper half but keeps it at the middle pair, so the upper half is
        # rewritten from the lower one.
        w = exp_weights(12, 1.2)
        dist = build_sum_dist(w)
        assert dist.degree == 12
        at_knots = dist.taylor_table[0]
        np.testing.assert_allclose(at_knots + at_knots[::-1], 1.0, rtol=0.0, atol=2.3e-16)
        qs = dist.support_end * np.random.default_rng(12).random(12)
        np.testing.assert_allclose(sum_cdf(dist, qs), exact_sum_cdf(w.weights, qs), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("k", [5, 10, 11])
    def test_last_bit_moves_stay_last_bit(self, k):
        # A one-ulp change in a query moves its CDF by about density x ulp,
        # not by the series' cancellation error.
        dist = build_sum_dist(exp_weights(k + 1, default_decay(k)))
        qs = dist.support_end * np.random.default_rng(k).random(20_000)
        moved = np.abs(sum_cdf(dist, np.nextafter(qs, 2.0)) - sum_cdf(dist, qs))
        assert moved.max() <= 1e-14


class TestKnotLookup:
    """The bucket index finds the knot a binary search finds, so sum_cdf
    gives the bits of the binary-search path (tests/oracles.py)."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, MAX_WINDOW), decay=st.floats(0.01, 60.0))
    @example(n=1, decay=1.0)
    @example(n=MAX_WINDOW, decay=default_decay(MAX_WINDOW - 1))
    @example(n=MAX_WINDOW, decay=5.0)  # knots crowd into few buckets
    @example(n=MAX_WINDOW, decay=12.0)  # weights are shed: degree < n
    def test_matches_binary_search_bitwise(self, n, decay):
        try:
            w = exp_weights(n, decay)
        except ValueError:
            assume(False)
        dist = build_sum_dist(w)
        s, end = dist.subset_sums, dist.support_end
        qs = np.concatenate(
            [
                s,
                np.nextafter(s, -math.inf),
                np.nextafter(s, math.inf),
                [0.0, end, (s[-1] + end) / 2, np.nextafter(end, 0.0), np.nextafter(end, 2.0), 2.0 * end],
            ]
        )
        interior = qs[(qs > 0.0) & (qs < end)]
        np.testing.assert_array_equal(anomaly._knots(dist, interior), searchsorted_knots(dist, interior))
        got, want = sum_cdf(dist, qs), sum_cdf_searchsorted(dist, qs)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # Queries all inside the support skip the masks, with the same bits.
        inside = sum_cdf(dist, interior.reshape(1, -1))
        np.testing.assert_array_equal(inside.ravel().view(np.int64), got[(qs > 0.0) & (qs < end)].view(np.int64))

    def test_pair_with_equal_weights(self):
        # Two equal weights give a repeated knot; the lookup takes the first.
        dist = build_sum_dist(WeightVector([0.5, 0.5]))
        qs = np.array([0.25, 0.5, np.nextafter(0.5, 1.0), 0.75])
        np.testing.assert_array_equal(anomaly._knots(dist, qs), searchsorted_knots(dist, qs))


class TestBatchedSumCdf:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, MAX_WINDOW), decay=st.floats(0.0, 745.0, exclude_min=True))
    @example(n=12, decay=12.0)
    @example(n=MAX_WINDOW, decay=40.0)
    def test_norm_const_is_positive_and_finite(self, n, decay):
        # After shedding, the kept weights' normalizing constant neither
        # underflows nor overflows for any window exp_weights accepts, so
        # sum_cdf can divide by it.
        try:
            w = exp_weights(n, decay)
        except ValueError:
            assume(False)
        assert 0.0 < build_sum_dist(w).norm_const < math.inf

    def test_shape_and_zero_d(self):
        dist = build_sum_dist(exp_weights(6, default_decay(5)))
        qs = np.random.default_rng(3).random((3, 4, 5)) * dist.support_end
        batched = sum_cdf(dist, qs)
        assert batched.shape == (3, 4, 5)
        for q, f in zip(qs.ravel(), batched.ravel()):
            for scalar_query in (q, float(q), np.array(q)):
                value = sum_cdf(dist, scalar_query)
                assert type(value) is float and value == f
        assert sum_cdf(dist, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("where", [0, 7, -1])
    def test_one_nan_anywhere_raises(self, where):
        dist = build_sum_dist(exp_weights(6, default_decay(5)))
        qs = np.linspace(-0.5, 1.5, 20)
        qs[where] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            sum_cdf(dist, qs.reshape(4, 5))


class TestPit:
    def test_median(self):
        assert pit_rows(std_normal_model(), [[0.0]], [0.0])[0] == 0.5

    def test_gaussian_quantile(self):
        model = slope_model()
        y = (1.0 + 2.0 * 0.3) + 1.959963984540054 * 0.7
        assert pit_rows(model, [[0.3]], [y])[0] == pytest.approx(norm.cdf(1.959963984540054), abs=1e-12)

    def test_clamped_into_open_interval(self):
        assert pit_rows(std_normal_model(), [[0.0], [0.0]], [-60.0, 60.0]).tolist() == [1e-15, 1.0 - 1e-15]

    def test_uniform_under_the_model(self):
        rng = np.random.default_rng(401)
        model = slope_model()
        x = rng.uniform(-2, 2, size=(10**4, 1))
        y, _ = sample_conditional(model, x, rng)
        u = pit_rows(model, x, y)
        assert kstest(u, "uniform").pvalue > 0.01

    def test_lag_one_autocorrelation_small(self):
        rng = np.random.default_rng(402)
        model = slope_model()
        x = rng.uniform(-2, 2, size=(10**4, 1))
        y, _ = sample_conditional(model, x, rng)
        u = pit_rows(model, x, y)
        centered = u - u.mean()
        rho = (centered[1:] * centered[:-1]).mean() / centered.var()
        assert abs(rho) < 0.03


class TestQStatistic:
    # The window statistic Q is the weight-vector combination of the
    # window's PIT rows, as score_series forms it.
    def test_all_half(self):
        u = pit_rows(std_normal_model(), np.zeros((3, 1)), np.zeros(3))
        assert exp_weights(3, 0.5).weights @ u == pytest.approx(0.5, abs=1e-12)

    def test_near_one_hot_weights(self):
        u = pit_rows(std_normal_model(), np.zeros((2, 1)), [0.0, 1.3])
        w = exp_weights(2, 30.0)  # newest weight ~ 1
        assert w.weights @ u == pytest.approx(u[1], abs=1e-9)

    def test_distribution_matches_sum_cdf(self):
        rng = np.random.default_rng(55)
        model = slope_model()
        w = exp_weights(4, 0.8)
        dist = build_sum_dist(w)
        x = rng.uniform(-2, 2, size=(4 * 10**4, 1))
        y, _ = sample_conditional(model, x, rng)
        u = pit_rows(model, x, y).reshape(10**4, 4)
        qs = u @ w.weights
        assert kstest(qs, lambda v: sum_cdf(dist, v)).pvalue > 0.01


class TestAsTheta:
    def test_center_scores_zero(self):
        # single uniform: F(q) = q, so q = 0.5 gives score 0
        assert window_score(stack_of([std_normal_model()]), [0.0], [0.0]) == 0.0

    def test_tail_value(self):
        # F = 0.975 => score 0.95; with one uniform F(q) = q
        y = norm.ppf(0.975)
        assert window_score(stack_of([std_normal_model()]), [0.0], [y]) == pytest.approx(0.95, abs=1e-9)

    def test_uniform_under_the_null(self):
        rng = np.random.default_rng(77)
        model = slope_model()
        w = exp_weights(6, default_decay(5))
        dist = build_sum_dist(w)
        x = rng.uniform(-2, 2, size=(6 * 10**4, 1))
        y, _ = sample_conditional(model, x, rng)
        u = pit_rows(model, x, y).reshape(10**4, 6)
        qs = u @ w.weights
        f = sum_cdf(dist, qs)
        scores = 1 - 2 * np.minimum(f, 1 - f)
        assert kstest(scores, "uniform").pvalue > 0.01

    def test_exceedance_rate_matches_threshold(self):
        rng = np.random.default_rng(78)
        model = slope_model()
        w = exp_weights(6, default_decay(5))
        dist = build_sum_dist(w)
        x = rng.uniform(-2, 2, size=(6 * 10**4, 1))
        y, _ = sample_conditional(model, x, rng)
        u = pit_rows(model, x, y).reshape(10**4, 6)
        f = sum_cdf(dist, u @ w.weights)
        scores = 1 - 2 * np.minimum(f, 1 - f)
        tau = 0.975
        exceed = int((scores >= tau).sum())
        from scipy.stats import binom

        lo, hi = binom.interval(0.99, 10**4, 1 - tau)
        assert lo <= exceed <= hi

    def test_reflection_symmetry(self):
        # Reversing the weights and mapping u -> 1 - u flips Q around 1/2;
        # the folded score is unchanged because the sum law is symmetric.
        rng = np.random.default_rng(79)
        w = rng.random(5) + 0.1
        w /= w.sum()
        u = rng.random(5)
        dist = build_sum_dist(WeightVector(w))
        dist_rev = build_sum_dist(WeightVector(w[::-1]))

        q1 = float(w @ u)
        q2 = float(w[::-1] @ (1 - u[::-1]))
        assert folded(sum_cdf(dist, q1)) == pytest.approx(folded(sum_cdf(dist_rev, q2)), abs=1e-9)


class TestAsPosterior:
    def single_draw_score(self, model, xs, ys, w):
        """The window's score under one parameter point, from its PIT rows."""
        return folded(sum_cdf(build_sum_dist(w), w.weights @ pit_rows(model, xs, ys)))

    def test_single_draw_equals_as_theta(self):
        model = std_normal_model()
        xs, ys = np.zeros((2, 1)), [0.4, -0.2]
        w = exp_weights(2, 0.5)
        assert window_score(stack_of([model]), xs, ys, 0.5) == self.single_draw_score(model, xs, ys, w)

    def test_identical_draws_collapse(self):
        model = slope_model()
        xs, ys = [[0.1], [0.2], [0.3]], [1.0, 1.5, 2.0]
        w = exp_weights(3, 0.7)
        assert window_score(stack_of([model] * 5), xs, ys, 0.7) == pytest.approx(
            self.single_draw_score(model, xs, ys, w), abs=1e-15
        )

    def test_bounded(self):
        rng = np.random.default_rng(91)
        draws = [
            ModelParams(
                (ExpertParams(rng.normal(), rng.normal(size=1), rng.uniform(0.5, 2)),),
                MixingGateParams(np.zeros((1, 2))),
                BehaviorGateParams(rng.normal(size=2)),
            )
            for _ in range(7)
        ]
        val = window_score(stack_of(draws), rng.normal(size=(4, 1)), rng.normal(size=4) * 10, 0.5)
        assert 0.0 <= val <= 1.0


class TestScoreSeries:
    def make_sample(self, model, copies=3):
        return stack_draws([model] * copies, 0.25, 1, 0)

    def test_windowless_scores(self):
        model = std_normal_model()
        data = make_dataset(np.zeros((5, 1)), [0.0, 0.5, -0.5, 2.0, 0.0])
        series = score_series(data, self.make_sample(model), k=0)
        assert len(series) == 5
        u = pit_rows(model, data.covariates, data.responses)
        np.testing.assert_allclose(series.as_values, 1 - 2 * np.minimum(u, 1 - u), atol=1e-12)

    def test_constant_data_at_model_mean(self):
        model = std_normal_model()
        data = make_dataset(np.zeros((8, 1)), np.zeros(8))
        series = score_series(data, self.make_sample(model), k=0)
        assert np.all(series.as_values == 0.0)
        windowed = score_series(data, self.make_sample(model), k=2)
        assert np.all(windowed.as_values < 1e-12)

    def test_first_k_timestamps_unscored(self):
        model = std_normal_model()
        data = make_dataset(np.zeros((10, 1)), np.zeros(10))
        series = score_series(data, self.make_sample(model), k=3)
        assert len(series) == 7
        assert series.timestamps[0] == data.timestamps[3]

    def test_large_shift_saturates(self):
        rng = np.random.default_rng(101)
        model = slope_model()
        x = rng.uniform(-2, 2, size=(40, 1))
        y = sample_conditional(model, x, rng)[0] + 10 * 0.7
        data = make_dataset(x, y)
        series = score_series(data, self.make_sample(model), k=5)
        assert np.all(series.as_values >= 0.99)

    def test_too_short_dataset(self):
        data = make_dataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            score_series(data, self.make_sample(std_normal_model()), k=5)

    def test_series_validation(self):
        ts = np.array(["2024-01-01"], dtype="datetime64[s]")
        with pytest.raises(ValueError):
            AnomalyScoreSeries(ts, np.array([1.5]), 0.975)
        with pytest.raises(ValueError):
            AnomalyScoreSeries(ts, np.array([0.5]), 1.0)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("as_values", [0.5, math.nan, 0.5]),
            ("as_values", [0.5, math.inf, 0.5]),
            ("theta_low", [0.1]),
            ("theta_low", [0.1, math.nan, 0.1]),
            ("theta_low", [-0.1, 0.1, 0.1]),
            ("theta_high", [0.9, 0.9, 0.9, 0.9]),
            ("theta_high", [0.9, 1.5, 0.9]),
            ("theta_high", [0.9, -math.inf, 0.9]),
            ("theta_high", [[0.9, 0.9, 0.9]]),
        ],
    )
    def test_series_refuses_bad_scores_and_bands(self, field, values):
        # NaN compares false with both ends of [0, 1], so a NaN score would
        # pass a min/max check and never raise an alarm.
        ts = np.datetime64("2024-01-01", "s") + np.arange(3) * np.timedelta64(3600, "s")
        columns = dict(as_values=[0.5, 0.5, 0.5], theta_low=[0.1, 0.1, 0.1], theta_high=[0.9, 0.9, 0.9])
        columns[field] = values
        with pytest.raises(ValueError, match=field):
            AnomalyScoreSeries(ts, threshold=0.975, **{k: np.array(v) for k, v in columns.items()})

    def test_series_bands_are_optional_float_arrays(self):
        ts = np.datetime64("2024-01-01", "s") + np.arange(2) * np.timedelta64(3600, "s")
        plain = AnomalyScoreSeries(ts, np.array([0.0, 1.0]), 0.975)
        assert plain.theta_low is None and plain.theta_high is None
        banded = AnomalyScoreSeries(ts, [0.5, 0.5], 0.975, [0, 0], [1, 1])
        assert banded.theta_low.dtype == banded.theta_high.dtype == np.float64


class TestPredictiveCalibration:
    """Rows drawn from the predictive mixture of a fixed sample, a draw picked
    per row, have posterior-predictive PIT values exactly U(0, 1), so the
    score of non-overlapping windows is uniform.  Over seeds 0-199 the KS
    test's p-value fell below 0.001 on none and below 0.01 on 2, so the
    false-failure rate at 0.001 is 0 of 200; the mean of the per-draw scores
    failed it on every seed, with p below 1e-138."""

    K = 5
    WINDOWS = 1000

    def sample_and_rows(self, seed):
        draws = [
            ModelParams((ExpertParams(b0, [b1], sd),), MixingGateParams(np.zeros((1, 2))), BehaviorGateParams(np.zeros(2)))
            for b0, b1, sd in [(-1.2, 0.5, 0.6), (-0.5, 1.0, 1.0), (0.0, 0.8, 1.4), (0.4, 1.2, 0.8), (1.0, 0.9, 1.1)]
        ]
        rng = np.random.default_rng(seed)
        n = self.WINDOWS * (self.K + 1) + self.K
        x = rng.uniform(-2.0, 2.0, size=(n, 1))
        pick = rng.integers(len(draws), size=n)
        y = np.empty(n)
        for d, model in enumerate(draws):
            y[pick == d] = sample_conditional(model, x[pick == d], rng)[0]
        return draws, make_dataset(x, y)

    @pytest.mark.parametrize("seed", range(20))
    def test_score_is_uniform_on_non_overlapping_windows(self, seed):
        draws, data = self.sample_and_rows(seed)
        scores = score_series(data, stack_of(draws), self.K).as_values[:: self.K + 1]
        assert len(scores) == self.WINDOWS
        assert kstest(scores, "uniform").pvalue > 0.001

    def test_mean_of_per_draw_scores_is_not_uniform(self):
        draws, data = self.sample_and_rows(0)
        w = exp_weights(self.K + 1, default_decay(self.K))
        dist = build_sum_dist(w)
        per_draw = []
        for model in draws:
            u = pit_rows(model, data.covariates, data.responses)
            per_draw.append(folded_all(sum_cdf(dist, np.lib.stride_tricks.sliding_window_view(u, self.K + 1) @ w.weights)))
        assert kstest(np.mean(per_draw, axis=0)[:: self.K + 1], "uniform").pvalue < 1e-100


class TestScoreProperties:
    def reflected_scores(self, seed, k, n_draws, extra_rows):
        """Scores of random rows and of the rows reflected about the intercept,
        under a one-expert, zero-slope stack that shares that intercept.  Every
        draw's PIT is Phi((y - b0) / sd), so the reflection maps each u to 1 - u,
        the window statistic Q to 1 - Q, and F(Q) to 1 - F(Q)."""
        rng = np.random.default_rng(seed)
        b0 = rng.uniform(-3.0, 3.0)
        experts = np.zeros((n_draws, 1, 3))
        experts[..., 0] = b0
        experts[..., -1] = np.log(rng.uniform(0.3, 3.0, size=(n_draws, 1)))
        sample = PosteriorSample(experts, np.zeros((n_draws, 1, 2)), rng.normal(size=(n_draws, 2)), 0.25, 1, 0)
        x = rng.normal(size=(k + 1 + extra_rows, 1))
        y = b0 + rng.uniform(0.1, 5.0) * rng.normal(size=len(x))
        return score_series(make_dataset(x, y), sample, k), score_series(make_dataset(x, 2.0 * b0 - y), sample, k)

    # Windows stop at k = 11, the longest the config accepts.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 11),
        n_draws=st.integers(1, 4),
        extra_rows=st.integers(0, 12),
    )
    def test_bounded_and_reflection_invariant(self, seed, k, n_draws, extra_rows):
        series, reflected = self.reflected_scores(seed, k, n_draws, extra_rows)
        for values in (series.as_values, series.theta_low, series.theta_high, reflected.as_values):
            assert np.all((values >= 0.0) & (values <= 1.0))
        np.testing.assert_allclose(reflected.as_values, series.as_values, rtol=0.0, atol=1e-9)
