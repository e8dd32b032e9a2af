"""Density-model unit tests: gates, fusion, densities, likelihood, priors."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from anomix.model import (
    BehaviorGateParams,
    Dataset,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    PriorSpec,
    _embed_rows,
    conditional_cdf_rows,
    conditional_logpdf_rows,
    conditional_pdf,
    fuse_experts,
    fused_moments,
    log_likelihood,
    log_prior,
)


def make_model(experts, gate_rows=None, behavior=None):
    n = experts[0].n
    if gate_rows is None:
        gate_rows = np.zeros((len(experts), n + 1))
    if behavior is None:
        behavior = np.zeros(n + 1)
    return ModelParams(tuple(experts), MixingGateParams(gate_rows), BehaviorGateParams(behavior))


def std_normal_model():
    return make_model([ExpertParams(0.0, [0.0], 1.0)])


def two_component_model():
    """Equal weights, pure mixing (huge behavior intercept), means +-1, sd 1."""
    e1 = ExpertParams(1.0, [0.0], 1.0)
    e2 = ExpertParams(-1.0, [0.0], 1.0)
    return make_model([e1, e2], behavior=[40.0, 0.0])


def mixing_weights(gate: MixingGateParams, x) -> np.ndarray:
    """Gate allocation at one covariate point, read from the batched moments."""
    n = gate.matrix.shape[1] - 1
    experts = [ExpertParams(0.0, np.zeros(n), 1.0)] * gate.matrix.shape[0]
    alpha, _, _ = fused_moments(make_model(experts, gate.matrix), np.reshape(x, (1, n)))
    return alpha[0]


def behavior_beta(gate: BehaviorGateParams, x) -> float:
    """Behavior-gate output at one covariate point, read from the batched
    moments: with experts at means 0 and 2 under equal allocation, the
    first fused mean is (1 - beta) times the blend mean 1."""
    n = len(gate.coeffs) - 1
    experts = [ExpertParams(0.0, np.zeros(n), 1.0), ExpertParams(2.0, np.zeros(n), 1.0)]
    _, means, _ = fused_moments(make_model(experts, behavior=gate.coeffs), np.reshape(x, (1, n)))
    return 1.0 - means[0, 0]


def make_dataset(x, y):
    x = np.asarray(x, dtype=float)
    ts = np.full(len(x), np.datetime64("2024-01-01", "s"))
    return Dataset(x, y, ts)


class TestEmbed:
    def test_empty_covariates(self):
        assert _embed_rows(np.zeros((1, 0))).tolist() == [[1.0]]

    def test_definition(self):
        assert _embed_rows([[2.0, -1.0]]).tolist() == [[1.0, 2.0, -1.0]]

    def test_zero_covariates(self):
        out = _embed_rows(np.zeros((1, 4)))
        expected = np.zeros((1, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(out, expected)


class TestMixingWeights:
    def test_zero_matrix_is_uniform(self):
        gate = MixingGateParams(np.zeros((4, 3)))
        w = mixing_weights(gate, [0.5, -2.0])
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_closed_form_two_experts(self):
        # softmax([ln 3, 0]) = [3/4, 1/4]
        gate = MixingGateParams([[math.log(3.0), 0.0], [0.0, 0.0]])
        w = mixing_weights(gate, [0.0])
        np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(2, 6), rng.integers(0, 4)
            rows = np.vstack([rng.normal(size=(m - 1, n + 1)), np.zeros(n + 1)])
            w = mixing_weights(MixingGateParams(rows), rng.normal(size=n))
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.normal(size=(2, 3)), np.zeros(3)])
        x = rng.normal(size=2)
        base = mixing_weights(MixingGateParams(rows), x)
        # Adding a constant to every logit is a rank-one shift of the matrix;
        # apply it directly to the logits to keep the frozen-row invariant.
        phi = np.concatenate(([1.0], x))
        logits = rows @ phi + 17.3
        shifted = np.exp(logits - logits.max())
        shifted /= shifted.sum()
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_frozen_row_enforced(self):
        with pytest.raises(ValueError):
            MixingGateParams([[1.0, 0.0], [0.5, 0.0]])


class TestBehaviorBeta:
    def test_zero_coeffs(self):
        assert behavior_beta(BehaviorGateParams([0.0, 0.0]), [3.0]) == 0.5

    def test_closed_form(self):
        # expit(ln 9) = 0.9
        beta = behavior_beta(BehaviorGateParams([math.log(9.0), 0.0]), [0.0])
        assert beta == pytest.approx(0.9, abs=1e-14)

    def test_saturation(self):
        beta = behavior_beta(BehaviorGateParams([1000.0, 0.0]), [0.0])
        assert beta == 1.0


class TestFusion:
    def test_beta_one_is_identity(self):
        rng = np.random.default_rng(11)
        experts = [ExpertParams(rng.normal(), rng.normal(size=3), rng.uniform(0.5, 2)) for _ in range(3)]
        alpha = rng.dirichlet(np.ones(3))
        fused = fuse_experts(experts, alpha, 1.0)
        for orig, new in zip(experts, fused):
            assert new.intercept == orig.intercept
            assert np.array_equal(new.slopes, orig.slopes)
            assert new.noise_sd == orig.noise_sd

    def test_beta_zero_collapses(self):
        rng = np.random.default_rng(12)
        experts = [ExpertParams(rng.normal(), rng.normal(size=2), rng.uniform(0.5, 2)) for _ in range(4)]
        fused = fuse_experts(experts, rng.dirichlet(np.ones(4)), 0.0)
        first = fused[0]
        for other in fused[1:]:
            assert abs(other.intercept - first.intercept) < 1e-14
            np.testing.assert_allclose(other.slopes, first.slopes, atol=1e-14)
            assert abs(other.noise_sd - first.noise_sd) < 1e-14

    def test_blended_sd_arithmetic(self):
        e1 = ExpertParams(0.0, [0.0], 1.0)
        e2 = ExpertParams(0.0, [0.0], 3.0)
        fused = fuse_experts([e1, e2], [0.5, 0.5], 0.0)
        for f in fused:
            assert f.noise_sd == pytest.approx(math.sqrt(5.0), abs=1e-15)

    def test_fuse_uses_model_gates(self):
        model = two_component_model()
        _, means, sds = fused_moments(model, [[0.0]])
        # behavior intercept 40 saturates beta to 1: base experts come back
        assert means.tolist() == [[1.0, -1.0]] and sds.tolist() == [[1.0, 1.0]]

    def test_logpdf_continuous_in_beta(self):
        rng = np.random.default_rng(5)
        experts = [ExpertParams(rng.normal(), rng.normal(size=1), rng.uniform(0.5, 2)) for _ in range(2)]
        alpha = np.array([0.3, 0.7])
        y = 0.4

        def mixture_logpdf(beta):
            fused = fuse_experts(experts, alpha, beta)
            dens = sum(a * norm.pdf(y, f.intercept, f.noise_sd) for a, f in zip(alpha, fused))
            return math.log(dens)

        for edge in (0.0, 1.0):
            inner = min(max(edge, 1e-9), 1 - 1e-9)
            assert mixture_logpdf(edge) == pytest.approx(mixture_logpdf(inner), abs=1e-6)


class TestConditionalDensity:
    def test_standard_normal_mode(self):
        val = conditional_pdf(std_normal_model(), [0.0], 0.0)
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-14)

    def test_two_component_value(self):
        # 0.5 phi(-1) + 0.5 phi(1) = phi(1)
        val = conditional_pdf(two_component_model(), [0.0], 0.0)
        assert val == pytest.approx(norm.pdf(1.0), abs=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            experts = [
                ExpertParams(rng.normal(), rng.normal(size=2), rng.uniform(0.3, 2.0))
                for _ in range(3)
            ]
            rows = np.vstack([rng.normal(size=(2, 3)), np.zeros(3)])
            model = make_model(experts, rows, rng.normal(size=3))
            x = rng.normal(size=2)
            _, means, sds = fused_moments(model, x[None, :])
            lo = means.min() - 12 * sds.max()
            hi = means.max() + 12 * sds.max()
            total, _ = quad(lambda y: conditional_pdf(model, x, y), lo, hi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_matches_pdf(self):
        model = two_component_model()
        y = 1.7
        assert conditional_logpdf_rows(model, [[0.3]], [y])[0] == pytest.approx(
            math.log(conditional_pdf(model, [0.3], y)), abs=1e-12
        )

    def test_rejects_nonfinite_response(self):
        with pytest.raises(ValueError):
            conditional_pdf(std_normal_model(), [0.0], math.nan)


class TestConditionalCdf:
    def test_limits(self):
        model = two_component_model()
        assert conditional_cdf_rows(model, [[0.0], [0.0]], [-1e9, 1e9]).tolist() == [0.0, 1.0]

    def test_median_of_standard_normal(self):
        assert conditional_cdf_rows(std_normal_model(), [[0.0]], [0.0])[0] == 0.5

    def test_matches_pdf_quadrature(self):
        rng = np.random.default_rng(31)
        experts = [ExpertParams(rng.normal(), rng.normal(size=1), rng.uniform(0.5, 1.5)) for _ in range(2)]
        rows = np.vstack([rng.normal(size=(1, 2)), np.zeros(2)])
        model = make_model(experts, rows, rng.normal(size=2))
        x = np.array([0.4])
        _, means, sds = fused_moments(model, x[None, :])
        lo = means.min() - 12 * sds.max()
        for y in np.linspace(means.min() - 2, means.max() + 2, 7):
            integral, _ = quad(lambda v: conditional_pdf(model, x, v), lo, y, limit=200)
            assert conditional_cdf_rows(model, x[None, :], [y])[0] == pytest.approx(integral, abs=1e-8)

    def test_monotone_in_y(self):
        model = two_component_model()
        ys = np.linspace(-6, 6, 301)
        vals = conditional_cdf_rows(model, np.zeros((len(ys), 1)), ys)
        assert np.all(np.diff(vals) >= 0)


class TestLogLikelihood:
    def test_empty_dataset(self):
        data = make_dataset(np.empty((0, 1)), [])
        assert log_likelihood(std_normal_model(), data) == 0.0

    def test_single_point(self):
        model = std_normal_model()
        data = make_dataset([[0.0]], [1.3])
        assert log_likelihood(model, data) == pytest.approx(
            conditional_logpdf_rows(model, [[0.0]], [1.3])[0], abs=1e-14
        )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(41)
        model = two_component_model()
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        data = make_dataset(x, y)
        perm = rng.permutation(20)
        shuffled = make_dataset(x[perm], y[perm])
        assert log_likelihood(model, data) == pytest.approx(
            log_likelihood(model, shuffled), rel=1e-12
        )

    def test_factorizes_over_two_points(self):
        model = two_component_model()
        data = make_dataset([[0.1], [-0.4]], [0.2, 1.1])
        product = conditional_pdf(model, [0.1], 0.2) * conditional_pdf(model, [-0.4], 1.1)
        assert math.exp(log_likelihood(model, data)) == pytest.approx(product, rel=1e-12)


class TestLogPrior:
    def laplace_term(self, value, loc, scale):
        return -math.log(2 * scale) - abs(value - loc) / scale

    def lognormal_term(self, sd, log_loc, log_scale):
        z = (math.log(sd) - log_loc) / log_scale
        return -math.log(sd) - math.log(log_scale) - 0.5 * math.log(2 * math.pi) - 0.5 * z * z

    def test_closed_form_at_locations(self):
        spec = PriorSpec()
        sd = math.exp(spec.noise_log_location)  # median of the log-normal
        model = make_model([ExpertParams(0.0, [0.0, 0.0], sd)], behavior=[0.0, 0.0, 0.0])
        # M=1: three mean coefficients, no free gate rows, three behavior coeffs.
        expected = 6 * self.laplace_term(0.0, 0.0, 1.0) + self.lognormal_term(sd, 0.0, 1.0)
        assert log_prior(model, spec) == pytest.approx(expected, abs=1e-12)

    def test_gate_scale_doubling(self):
        # At distance d from the location, doubling the scale changes the
        # Laplace term by -ln 2 + d / (2 b).
        d, b = 2.5, 1.0
        e = ExpertParams(0.0, [0.0], 1.0)
        rows = np.array([[d, 0.0], [0.0, 0.0]])
        model = make_model([e, e], rows)
        narrow = log_prior(model, PriorSpec(gate_coeff_scale=b))
        wide = log_prior(model, PriorSpec(gate_coeff_scale=2 * b))
        # Both free-row entries and both behavior coefficients rescale; only
        # the entry at distance d gains the d-dependent correction.
        per_coeff = -math.log(2.0)
        assert wide - narrow == pytest.approx(4 * per_coeff + d / (2 * b), abs=1e-12)

    def test_frozen_row_contributes_nothing(self):
        e = ExpertParams(0.3, [0.1], 1.2)
        rows = np.array([[0.7, -0.2], [0.0, 0.0]])
        model = make_model([e, e], rows, [0.4, -0.9])
        spec = PriorSpec()
        by_hand = (
            2 * sum(self.laplace_term(v, 0.0, 1.0) for v in (0.3, 0.1))
            + 2 * self.lognormal_term(1.2, 0.0, 1.0)
            + sum(self.laplace_term(v, 0.0, 1.0) for v in (0.7, -0.2))  # first row only
            + sum(self.laplace_term(v, 0.0, 1.0) for v in (0.4, -0.9))
        )
        assert log_prior(model, spec) == pytest.approx(by_hand, abs=1e-12)


class TestValidation:
    def test_positive_noise_sd(self):
        with pytest.raises(ValueError):
            ExpertParams(0.0, [0.0], 0.0)

    def test_expert_dimension_consistency(self):
        with pytest.raises(ValueError):
            make_model([ExpertParams(0.0, [0.0], 1.0), ExpertParams(0.0, [0.0, 0.0], 1.0)])

    def test_timestamps_must_be_sorted(self):
        ts = np.array(["2024-01-02", "2024-01-01"], dtype="datetime64[s]")
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.zeros(2), ts)
