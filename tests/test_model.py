"""Density-model unit tests: gates, fusion, densities, likelihood, priors.

A parameter point is one draw ``(coeffs, sds, gate_matrix, behavior_coeffs)``,
built from experts and gate rows by the helpers of ``tests/oracles.py``."""

import math
import warnings
from dataclasses import fields

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    assert_within_4_eps,
    conditional_pdf,
    fuse_experts,
    log_likelihood,
    stack_draws,
)
from scipy.integrate import quad
from scipy.special import expit, logsumexp
from scipy.stats import norm

from anomix.model import (
    Dataset,
    PriorSpec,
    _blend,
    _cdf_from_moments,
    _draw_from_moments,
    _embed_rows,
    _fuse,
    _log_prior_arrays,
    _logistic_gate,
    _logpdf_from_moments,
    _logsumexp,
    _softmax_gate,
    conditional_cdf_rows,
    conditional_logpdf_rows,
    fused_moments,
)


def make_model(experts, gate_rows=None, behavior=None):
    n = len(experts[0].slopes)
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


def mixing_weights(gate, x) -> np.ndarray:
    """Gate allocation at one covariate point, read from the batched moments."""
    n = gate.shape[1] - 1
    experts = [ExpertParams(0.0, np.zeros(n), 1.0)] * gate.shape[0]
    alpha, _, _ = fused_moments(make_model(experts, gate), np.reshape(x, (1, n)))
    return alpha[0]


def behavior_beta(gate, x) -> float:
    """Behavior-gate output at one covariate point, read from the batched
    moments: with experts at means 0 and 2 under equal allocation, the
    first fused mean is (1 - beta) times the blend mean 1."""
    n = len(gate) - 1
    experts = [ExpertParams(0.0, np.zeros(n), 1.0), ExpertParams(2.0, np.zeros(n), 1.0)]
    _, means, _ = fused_moments(make_model(experts, behavior=gate), np.reshape(x, (1, n)))
    return 1.0 - means[0, 0]


def stacked(model):
    """``model`` as a posterior sample of one draw, which validates it."""
    return stack_draws([model], 0.25, 1, 0)


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
        e = ExpertParams(0.0, [0.0], 1.0)
        with pytest.raises(ValueError, match="last gate row"):
            stacked(make_model([e, e], MixingGateParams([[1.0, 0.0], [0.5, 0.0]])))


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
        _, means, variances = fused_moments(model, [[0.0]])
        # behavior intercept 40 saturates beta to 1: base experts come back
        assert means.tolist() == [[1.0, -1.0]] and variances.tolist() == [[1.0, 1.0]]

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
            _, means, variances = fused_moments(model, x[None, :])
            lo = means.min() - 12 * np.sqrt(variances.max())
            hi = means.max() + 12 * np.sqrt(variances.max())
            total, _ = quad(lambda y: conditional_pdf(model, x, y), lo, hi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_matches_pdf(self):
        model = two_component_model()
        y = 1.7
        assert conditional_logpdf_rows(model, [[0.3]], [y])[0] == pytest.approx(
            math.log(conditional_pdf(model, [0.3], y)), abs=1e-12
        )


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
        _, means, variances = fused_moments(model, x[None, :])
        lo = means.min() - 12 * np.sqrt(variances.max())
        for y in np.linspace(means.min() - 2, means.max() + 2, 7):
            integral, _ = quad(lambda v: conditional_pdf(model, x, v), lo, y, limit=200)
            assert conditional_cdf_rows(model, x[None, :], [y])[0] == pytest.approx(integral, abs=1e-8)

    def test_monotone_in_y(self):
        model = two_component_model()
        ys = np.linspace(-6, 6, 301)
        vals = conditional_cdf_rows(model, np.zeros((len(ys), 1)), ys)
        assert np.all(np.diff(vals) >= 0)


@st.composite
def lse_inputs(draw):
    """Float64 arrays of 1-3 dimensions with a reduction axis, values up to a
    magnitude between 1e-3 and 800, and optionally tied maxima along that
    axis, scattered -inf entries and whole -inf slices."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    axis = draw(st.sampled_from([-1, 0]))
    scale = draw(st.floats(1e-3, 800.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = scale * rng.uniform(-1.0, 1.0, size=shape)
    if draw(st.booleans()):
        a = np.where(rng.random(shape) < 0.5, a.max(axis=axis, keepdims=True), a)
    if draw(st.booleans()):
        a[rng.random(shape) < 0.3] = -np.inf
    if draw(st.booleans()):
        idx = [slice(None)] * a.ndim
        if a.ndim > 1:
            idx[0 if axis == -1 else -1] = 0
        a[tuple(idx)] = -np.inf
    return a, axis


@st.composite
def expert_axis_inputs(draw):
    """C-contiguous float64 arrays of 0-2 leading axes, an expert axis of
    1-16 and a row axis of 2-4, values of mixed magnitudes, optionally with
    tied maxima over the experts and scattered -inf, inf and NaN entries."""
    shape = (*draw(st.lists(st.integers(1, 4), max_size=2)), draw(st.integers(1, 16)), draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    if draw(st.booleans()):
        a = np.where(rng.random(shape) < 0.5, a.max(axis=-2, keepdims=True), a)
    for value in (-np.inf, np.inf, np.nan):
        if draw(st.booleans()):
            a[rng.random(shape) < 0.2] = value
    return a


def fold_experts(ufunc, a):
    """``ufunc`` applied over the expert axis (-2) slice by slice from the left."""
    out = a[..., 0, :].copy()
    for j in range(1, a.shape[-2]):
        ufunc(out, a[..., j, :], out=out)
    return out


class TestExpertAxis:
    """Per-expert arrays are laid out (..., M, rows), and reductions over the
    experts rest on NumPy folding axis -2 of a C-contiguous array slice by
    slice from the left, for any expert count.  That holds while there are
    at least two rows: with one, the expert axis is the contiguous one and
    NumPy sums 8 or more experts pairwise.  Checked bit for bit, and the
    log-sum-exp kernel within ``4 * eps * max(1, |x|)`` of scipy's ``x``."""

    @settings(max_examples=300, deadline=None)
    @given(expert_axis_inputs())
    def test_bitwise_equal_to_numpy_and_within_4_eps_of_scipy(self, a):
        assert a.flags.c_contiguous
        with np.errstate(invalid="ignore"):
            assert np.array_equal(a.max(axis=-2), fold_experts(np.maximum, a), equal_nan=True)
            total = fold_experts(np.add, a)
            assert np.array_equal(a.sum(axis=-2), total, equal_nan=True)
            assert np.array_equal(np.cumsum(a, axis=-2)[..., -1, :], total, equal_nan=True)
            want = logsumexp(a, axis=-2)
        assert_within_4_eps(_logsumexp(a, axis=-2), want)

    @pytest.mark.parametrize("n_experts", range(1, 8))
    def test_blend_folds_the_experts_from_the_left(self, n_experts):
        rng = np.random.default_rng(90 + n_experts)
        for _ in range(200):
            slots, rows = rng.integers(1, 50), rng.integers(2, 300)
            phi = _embed_rows(rng.normal(size=(rows, 2)))
            alpha = _softmax_gate(rng.normal(size=(slots, n_experts, 3)), phi)
            means = rng.normal(size=(slots, n_experts, rows)) * 10.0 ** rng.uniform(-2, 2, size=(slots, n_experts, 1))
            variances = np.exp(rng.normal(scale=2.0, size=(slots, n_experts)))
            blend_mean, blend_var = _blend(alpha, means, variances)
            assert np.array_equal(blend_mean[..., 0, :], fold_experts(np.add, alpha * means))
            assert np.array_equal(blend_var[..., 0, :], fold_experts(np.add, alpha * variances[..., None]))


@st.composite
def few_expert_inputs(draw):
    """``(a, axis)``: (S, M, rows) float64 arrays reduced over axis -2, or
    1-D arrays of M values reduced over their only axis, with M of 1-3 and
    1-600 rows.  Values run from -1e4 to 1e3 with signed zeros, optionally
    with exact two- or three-way ties over the experts (zeros of both signs
    among them), ``-inf`` entries, and ``inf`` and NaN entries."""
    m = draw(st.integers(1, 3))
    shape = (m,) if draw(st.booleans()) else (draw(st.integers(1, 4)), m, draw(st.integers(1, 600)))
    axis = draw(st.sampled_from([-1, 0])) if len(shape) == 1 else -2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 0.1, size=shape) * 10.0 ** rng.uniform(-3.0, 4.0, size=shape)
    a[rng.random(shape) < 0.05] = 0.0
    a[rng.random(shape) < 0.05] = -0.0
    experts = np.moveaxis(a, axis, 0)  # a view: writes land in ``a``
    tied = rng.random(experts.shape[1:]) < 0.5
    for j in range(1, draw(st.integers(1, m))):  # no tie, or a two- or three-way one where ``tied``
        experts[j] = np.where(tied, experts[0], experts[j])
    if draw(st.booleans()):
        zeros = rng.random(experts.shape) < 0.2
        experts[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    if draw(st.booleans()):
        a[rng.random(shape) < 0.3] = -np.inf
    for value in (np.inf, np.nan):
        if draw(st.booleans()):
            a[rng.random(shape) < 0.05] = value
    return a, axis


def assert_within_ulp(got, want, ulps: int):
    """Same shape, NaN in the same places and within ``ulps`` spacings of ``want`` everywhere else."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    g, w = got[~nan], want[~nan]
    assert np.all((g == w) | (np.abs(g - w) <= ulps * np.spacing(np.abs(w))))


def assert_bitwise_equal(got, want):
    """Same shape, NaN in the same places and the same bits everywhere else (so -0.0 is not 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestLogSumExp:
    """The in-repo kernel against scipy's logsumexp: within ``4 * eps * max(1, |x|)`` of its
    ``x``, and equal where ``x`` is not finite."""

    @settings(max_examples=500, deadline=None)
    @given(few_expert_inputs())
    def test_one_to_three_experts_within_4_eps_of_scipy_without_warnings(self, case):
        a, axis = case
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error")
            got = _logsumexp(a, axis=axis)
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=axis)
        assert type(got) is type(want)
        assert_within_4_eps(got, want)

    @pytest.mark.parametrize("shape, axis", [((3, 0, 5), -2), ((0,), -1), ((0, 3), 0)])
    def test_empty_axis_is_refused(self, shape, axis):
        with pytest.raises(ValueError, match="zero-size array"):
            _logsumexp(np.empty(shape), axis=axis)

    @settings(max_examples=300, deadline=None)
    @given(lse_inputs())
    def test_within_4_eps_of_scipy(self, case):
        a, axis = case
        assert_within_4_eps(_logsumexp(a, axis=axis), logsumexp(a, axis=axis))

    @pytest.mark.parametrize("a", [[np.inf, 0.0], [np.inf, np.inf], [np.nan, 0.0], [-np.inf, np.nan]])
    def test_non_finite_slices(self, a):
        a = np.array(a)[:, None]
        with np.errstate(invalid="ignore"):
            want = logsumexp(a, axis=0)
        assert np.array_equal(_logsumexp(a, axis=0), want, equal_nan=True)


@st.composite
def helper_arguments(draw):
    """Arguments of the gate, fusion and density helpers: 0-2 leading (draw)
    axes, 1-4 experts, 1-40 rows and 0-3 covariates, values of mixed
    magnitudes, gate weights that underflow to 0 (log weight ``-inf``) and
    behavior outputs of exactly 0 and 1.  The moment arrays are views into
    larger arrays, as the sampler's state slices are."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m, rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mixed(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)

    gate = mixed(*lead, m, n + 1)
    gate[..., -1, :] = 0.0
    beta = rng.uniform(size=(*lead, 1, rows))
    beta[rng.random(beta.shape) < 0.2] = rng.choice([0.0, 1.0])
    log_alpha = np.log(rng.dirichlet(np.ones(m), size=(*lead, rows))).swapaxes(-1, -2)
    log_alpha[rng.random(log_alpha.shape) < 0.2] = -np.inf
    return {
        "gate": gate,
        "behavior": mixed(*lead, n + 1),
        "phi": np.column_stack([np.ones(rows), mixed(rows, n)]),
        "beta": beta,
        "rest": 1.0 - beta,
        "means": mixed(*lead, m + 1, rows)[..., 1:, :],
        "variances": np.exp(rng.uniform(-6.0, 6.0, size=(*lead, m))),
        "blend": (mixed(*lead, 1, rows), np.exp(rng.uniform(-6.0, 6.0, size=(*lead, 1, rows)))),
        "log_alpha": log_alpha,
        "sds": np.exp(rng.uniform(-3.0, 3.0, size=(*lead, m, 2 * rows)))[..., ::2],
        "y": mixed(*lead, rows),
    }


def argument_bytes(*args):
    return [a.tobytes() for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))]


class TestInPlaceHelpers:
    """The gate, fusion and density helpers run in place on temporaries they
    own: they leave every argument's bytes as they were and return, bit for
    bit, what the same operations give one new array at a time
    (``tests/oracles.py``).  The mixture density kernel works in place on the
    residuals and variances it is given, and leaves the log weights as they
    were; of four or more experts, whose oracle reduces with scipy, it is held
    to ``_logsumexp``'s 4-eps bound.  The CDF kernel consumes its variances
    only, taking the sds in place on them."""

    CASES = {
        "softmax_gate": (_softmax_gate, oracles.softmax_gate, ("gate", "phi")),
        "logistic_gate": (_logistic_gate, oracles.logistic_gate, ("behavior", "phi")),
        "fuse": (_fuse, oracles.fuse, ("beta", "rest", "means", "variances", "blend")),
    }

    @settings(max_examples=150, deadline=None)
    @given(helper_arguments(), st.sampled_from(sorted(CASES)))
    def test_arguments_untouched_and_results_bitwise_equal(self, kwargs, name):
        helper, oracle, names = self.CASES[name]
        args = [kwargs[k] for k in names]
        before = argument_bytes(*args)
        got, want = helper(*args), oracle(*args)
        assert argument_bytes(*args) == before
        for g, w in zip(*((r if isinstance(r, tuple) else (r,)) for r in (got, want)), strict=True):
            assert_bitwise_equal(g, w)

    @settings(max_examples=150, deadline=None)
    @given(helper_arguments())
    def test_logistic_gate_within_4_ulp_of_scipy_expit(self, kwargs):
        behavior, phi = kwargs["behavior"], kwargs["phi"]
        want = expit(behavior[..., None, :] @ phi.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_within_ulp(_logistic_gate(behavior, phi), want, 4)

    def test_logistic_gate_tails_within_4_ulp_of_scipy_expit_without_warnings(self):
        # Logit t at row [1, t] under coefficients [0, 1]; exp(-t) overflows below about -709.8.
        t = np.concatenate([np.linspace(-750.0, 750.0, 150_001), [-np.inf, np.inf, -0.0, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logistic_gate(np.array([0.0, 1.0]), np.column_stack([np.ones_like(t), t]))
        assert_within_ulp(got[0], expit(t), 4)

    @settings(max_examples=150, deadline=None)
    @given(helper_arguments())
    def test_logpdf_from_moments(self, kwargs):
        # The kernel works in place on its residuals and variances, here the views "means" and "sds"
        # (mixed magnitudes, and positive values from e^-3 to e^3), so the oracle reads them first.
        log_alpha, residuals, variances = kwargs["log_alpha"], kwargs["means"], kwargs["sds"]
        want = oracles.logpdf_from_moments(log_alpha, residuals, variances)
        before = argument_bytes(log_alpha)
        got = _logpdf_from_moments(log_alpha, residuals, variances)
        assert argument_bytes(log_alpha) == before
        if residuals.shape[-2] <= 3:
            assert_bitwise_equal(got, want)
        else:
            assert_within_4_eps(got, want)

    @settings(max_examples=150, deadline=None)
    @given(helper_arguments())
    def test_cdf_from_moments(self, kwargs):
        # The kernel takes the sds in place on its variances, here the view "sds", so the oracle reads
        # them first; it leaves the mixing weights, the fused means and the responses as they were.
        alpha, means, variances, y = np.exp(kwargs["log_alpha"]), kwargs["means"], kwargs["sds"], kwargs["y"]
        want = oracles.cdf_from_moments(alpha, means, variances, y)
        before = argument_bytes(alpha, means, y)
        got = _cdf_from_moments(alpha, means, variances, y)
        assert argument_bytes(alpha, means, y) == before
        assert_bitwise_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(few_expert_inputs())
    def test_logsumexp(self, case):
        a, axis = case
        before = a.tobytes()
        _logsumexp(a, axis=axis)
        assert a.tobytes() == before


@st.composite
def expert_picks(draw):
    """Arguments of ``_draw_from_moments``: 1-7 experts and 1-30 rows over
    1-8 draws, whose sorted ``inverse`` repeats some distinct draws' moments
    as ``PosteriorSample.moment_blocks`` does; mixing weights with exact
    zeros, down to one expert holding all of a row's weight, and uniforms at
    0, just below 1 and on the cumulative weights themselves."""
    m, rows, n_draws = draw(st.integers(1, 7)), draw(st.integers(1, 30)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fresh = rng.random(n_draws) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    fresh[0] = True
    inverse = fresh.cumsum() - 1
    alpha = np.moveaxis(rng.dirichlet(np.ones(m), size=(inverse[-1] + 1, rows)), -1, -2).copy()
    alpha[rng.random(alpha.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    alpha[..., rng.integers(m), :] += alpha.sum(axis=-2) == 0.0
    alpha /= alpha.sum(axis=-2, keepdims=True)
    uniforms = rng.random((n_draws, rows))
    cum = np.cumsum(alpha[inverse], axis=-2)
    on_sum = rng.random(uniforms.shape) < 0.3
    uniforms[on_sum] = np.take_along_axis(cum, rng.integers(m, size=(n_draws, 1, rows)), axis=-2)[:, 0, :][on_sum]
    uniforms[uniforms >= 1.0] = np.nextafter(1.0, 0.0)  # a uniform is below 1
    for value in (0.0, np.nextafter(1.0, 0.0)):
        uniforms[rng.random(uniforms.shape) < 0.1] = value
    means, variances = rng.normal(size=alpha.shape), np.exp(rng.normal(size=alpha.shape))
    return alpha, means, variances, uniforms, rng.standard_normal(uniforms.shape), inverse


class TestExpertPick:
    """The expert a predictive draw takes is the count of running sums of
    the mixing weights at or below its uniform: bit for bit the first bin
    of the cumulative sum above it (``tests/oracles.py``), over the moments
    each draw's ``inverse`` row selects."""

    @settings(max_examples=300, deadline=None)
    @given(expert_picks())
    def test_bitwise_equal_to_the_cumsum_argmax(self, args):
        alpha, means, variances, uniforms, normals, inverse = args
        got, got_z = _draw_from_moments(*args)
        want, want_z = oracles.draw_from_moments_argmax(
            alpha[inverse], means[inverse], variances[inverse], uniforms, normals
        )
        assert got_z.dtype == want_z.dtype and np.array_equal(got_z, want_z)
        assert_bitwise_equal(got, want)


class TestMomentKernels:
    """The CDF and draw kernels read fused variances and take their square roots themselves: at
    ``sigma = sqrt(v)`` they are the normal CDF and the ``mean + sigma * normal`` draw."""

    @settings(max_examples=150, deadline=None)
    @given(expert_picks(), st.integers(0, 2**32 - 1))
    def test_cdf_is_the_normal_mixture_cdf_at_the_root_of_the_variance(self, args, seed):
        alpha, means, variances, *_ = args
        y = np.random.default_rng(seed).normal(scale=3.0, size=means.shape[-1])
        want = (alpha * norm.cdf(y[None, None, :], loc=means, scale=np.sqrt(variances))).sum(axis=-2)
        got = _cdf_from_moments(alpha, means, variances.copy(), y)
        # ndtr is within 4.5e-16 of scipy's, and the alpha-weighted sum adds a few roundings of terms below 1.
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_draw_scales_the_normals_by_the_root_of_the_variance(self):
        alpha, means = np.ones((1, 1, 4)), np.array([[[0.0, 1.0, -2.0, 0.5]]])
        variances = np.array([[[0.25, 4.0, 1.0, 9.0]]])  # exact squares of 0.5, 2, 1 and 3
        normals = np.array([[1.0, -1.5, 2.0, 0.25]])
        got, z = _draw_from_moments(alpha, means, variances, np.zeros((1, 4)), normals, np.zeros(1, np.intp))
        assert z.tolist() == [[0, 0, 0, 0]] and got.tolist() == [[0.5, -2.0, 0.0, 1.25]]


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


def log_prior(model, spec: PriorSpec) -> float:
    """The sampler's log prior of one parameter point, in log-sd coordinates."""
    experts, gate_matrix, behavior = model
    return float(
        _log_prior_arrays(
            spec, coeffs=experts[:, :-1], log_sds=experts[:, -1], gate_matrix=gate_matrix, behavior_coeffs=behavior
        )
    )


class TestLogPrior:
    """In log-sd coordinates the log-normal prior on a noise sd is a normal
    density of its log, without the Jacobian term -log sd."""

    def laplace_term(self, value, loc, scale):
        return -math.log(2 * scale) - abs(value - loc) / scale

    def log_normal_term(self, sd, log_loc, log_scale):
        z = (math.log(sd) - log_loc) / log_scale
        return -math.log(log_scale) - 0.5 * math.log(2 * math.pi) - 0.5 * z * z

    def test_closed_form_at_locations(self):
        spec = PriorSpec()
        sd = math.exp(spec.noise_log_location)  # median of the log-normal
        model = make_model([ExpertParams(0.0, [0.0, 0.0], sd)], behavior=[0.0, 0.0, 0.0])
        # M=1: three mean coefficients, no free gate rows, three behavior coeffs.
        expected = 6 * self.laplace_term(0.0, 0.0, 1.0) + self.log_normal_term(sd, 0.0, 1.0)
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
            + 2 * self.log_normal_term(1.2, 0.0, 1.0)
            + sum(self.laplace_term(v, 0.0, 1.0) for v in (0.7, -0.2))  # first row only
            + sum(self.laplace_term(v, 0.0, 1.0) for v in (0.4, -0.9))
        )
        assert log_prior(model, spec) == pytest.approx(by_hand, abs=1e-12)


class TestValidation:
    def test_expert_dimension_consistency(self):
        # Experts of one covariate under gates of two.
        e = ExpertParams(0.0, [0.0], 1.0)
        with pytest.raises(ValueError, match="shapes"):
            stacked(make_model([e, e], np.zeros((2, 3)), np.zeros(3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(PriorSpec)])
    def test_non_finite_prior_fields_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            PriorSpec(**{name: value})

    def test_timestamps_must_be_sorted(self):
        ts = np.array(["2024-01-02", "2024-01-01"], dtype="datetime64[s]")
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.zeros(2), ts)
