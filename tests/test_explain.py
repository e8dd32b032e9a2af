"""Gate-geometry tests: disentangled directions, grid embedding, SVD fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    draw,
    orthogonal_directions_lstsq,
    stack_draws,
)

from anomix.explain import (
    GateGeometry,
    _predictive_summary,
    default_score_grid,
    embed_grid,
    gate_geometry,
    reduce_svd,
    reduced_geometry,
    render_map,
)
from anomix.model import fused_moments
from anomix.posterior import PosteriorSample


def gram_schmidt_residual(a, others):
    """Textbook Gram-Schmidt of ``a`` against an orthonormalized basis of the others."""
    basis = []
    for v in others:
        u = v.astype(float).copy()
        for b in basis:
            u -= (u @ b) * b
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            basis.append(u / norm)
    r = a.astype(float).copy()
    for b in basis:
        r -= (r @ b) * b
    return r


def sample_from_gate(matrix, n_experts, n_features, n_draws=3):
    """Posterior sample whose draws share one gate matrix exactly."""
    experts = tuple(ExpertParams(0.5 * i, np.zeros(n_features), 1.0 + 0.1 * i) for i in range(n_experts))
    draws = [
        ModelParams(experts, MixingGateParams(matrix), BehaviorGateParams(np.zeros(n_features + 1)))
        for _ in range(n_draws)
    ]
    return stack_draws(draws, 0.25, 1, 0)


def full_gate(slopes, intercepts):
    """Gate matrix with frozen last row from slope rows and intercepts."""
    rows = np.column_stack([intercepts, slopes])
    return np.vstack([rows, np.zeros(slopes.shape[1] + 1)])


class TestGateGeometry:
    def test_orthogonal_rows_unchanged(self):
        slopes = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        sample = sample_from_gate(full_gate(slopes, np.array([0.1, -0.2])), 3, 3)
        geo = gate_geometry(sample)
        np.testing.assert_allclose(np.stack(geo.a_star), slopes, atol=1e-12)

    def test_two_experts_single_row_identity(self):
        slopes = np.array([[1.0, -2.0, 0.5]])
        sample = sample_from_gate(full_gate(slopes, np.array([0.3])), 2, 3)
        geo = gate_geometry(sample)
        np.testing.assert_allclose(geo.a_star[0], slopes[0], atol=1e-14)

    def test_orthogonality_against_gram_schmidt(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            slopes = rng.normal(size=(2, 5))
            sample = sample_from_gate(full_gate(slopes, rng.normal(size=2)), 3, 5)
            geo = gate_geometry(sample)
            a1s, a2s = geo.a_star
            scale = np.linalg.norm(slopes)
            assert abs(a1s @ slopes[1]) < 1e-10 * scale
            assert abs(a2s @ slopes[0]) < 1e-10 * scale
            np.testing.assert_allclose(
                a1s, gram_schmidt_residual(slopes[0], [slopes[1]]), atol=1e-10
            )

    def test_star_spans_row_space(self):
        rng = np.random.default_rng(7)
        slopes = rng.normal(size=(3, 6))
        sample = sample_from_gate(full_gate(slopes, np.zeros(3)), 4, 6)
        geo = gate_geometry(sample)
        stacked = np.stack(geo.a_star)
        combined = np.vstack([slopes, stacked])
        assert np.linalg.matrix_rank(combined, tol=1e-10) == 3

    def test_rank_deficient_reports_rank(self):
        slopes = np.array([[1.0, 0.0], [2.0, 0.0]])
        sample = sample_from_gate(full_gate(slopes, np.zeros(2)), 3, 2)
        with pytest.raises(ValueError, match="rank 1"):
            gate_geometry(sample)

    def test_rank_deficient_advice_follows_the_row_count(self):
        # Two gate rows: reduce_svd refuses them, so no map is the answer.
        two = sample_from_gate(full_gate(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2)), 3, 2)
        with pytest.raises(ValueError, match="rank 1 < 2; no 2-D map exists$"):
            gate_geometry(two)
        # Three rows of rank 2: the SVD reduction exists.
        slopes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        three = sample_from_gate(full_gate(slopes, np.zeros(3)), 4, 3)
        with pytest.raises(ValueError, match="rank 2 < 3; use the SVD reduction instead$"):
            gate_geometry(three)
        assert reduce_svd(slopes).shape == (2, 3)

    def test_an_all_zero_single_row_has_rank_0(self):
        sample = sample_from_gate(full_gate(np.zeros((1, 3)), np.array([0.3])), 2, 3)
        with pytest.raises(ValueError, match="rank 0 < 1; no 2-D map exists$"):
            gate_geometry(sample)

    def test_single_expert_has_no_geometry(self):
        sample = sample_from_gate(np.zeros((1, 3)), 1, 2)
        with pytest.raises(ValueError):
            gate_geometry(sample)


def conditioned_slopes(rng, rows, features, cond, scale):
    """A ``rows`` x ``features`` matrix with 2-norm ``scale`` and condition number ``cond``."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(features, rows)))
    return (u * (scale * np.geomspace(1.0, 1.0 / cond, rows))) @ v.T


class TestAgainstLeastSquares:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3),
        extra_features=st.integers(0, 3),
        log_cond=st.floats(0.0, 3.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_a_star_matches_per_row_least_squares(self, seed, rows, extra_features, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        slopes = conditioned_slopes(rng, rows, rows + extra_features, 10**log_cond, 10**log_scale)
        geo = gate_geometry(sample_from_gate(full_gate(slopes, rng.normal(size=rows)), rows + 1, slopes.shape[1]))
        bound = 1e-12 * np.linalg.norm(geo.slopes, 2)
        np.testing.assert_allclose(np.stack(geo.a_star), orthogonal_directions_lstsq(geo.slopes), rtol=0, atol=bound)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["1 row", "2 rows", "3 rows", "reduced"]))
    def test_a_star_matches_least_squares_for_every_kind(self, seed, kind):
        rng = np.random.default_rng(seed)
        rows = {"1 row": 1, "2 rows": 2, "3 rows": 3, "reduced": 4}[kind]
        slopes = conditioned_slopes(rng, rows, 5, 10 ** rng.uniform(0, 3), 10 ** rng.uniform(-3, 3))
        sample = sample_from_gate(full_gate(slopes, rng.normal(size=rows)), rows + 1, 5)
        geo = (reduced_geometry if kind == "reduced" else gate_geometry)(sample)
        bound = 1e-12 * np.linalg.norm(geo.slopes, 2)
        np.testing.assert_allclose(np.stack(geo.a_star), orthogonal_directions_lstsq(geo.slopes), rtol=0, atol=bound)


    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["1 row", "2 rows", "3 rows", "reduced"]),
        log_cond=st.floats(0.0, 3.0),
        log_scale=st.floats(-100.0, 100.0),
        log_grid=st.floats(-3.0, 3.0),
    )
    def test_embedding_reproduces_the_grid_at_every_scale(self, seed, kind, log_cond, log_scale, log_grid):
        # Slopes of 2-norm 1e-100 to 1e100: the squares the pseudo-inverse divides by stay finite and nonzero.
        rng = np.random.default_rng(seed)
        rows = {"1 row": 1, "2 rows": 2, "3 rows": 3, "reduced": 4}[kind]
        slopes = conditioned_slopes(rng, rows, rows + 2, 10**log_cond, 10**log_scale)
        sample = sample_from_gate(full_gate(slopes, rng.normal(size=rows)), rows + 1, rows + 2)
        geo = (reduced_geometry if kind == "reduced" else gate_geometry)(sample)
        grid = default_score_grid(geo.n_directions, points_per_axis=5) * 10**log_grid
        points = embed_grid(geo, grid).points
        assert np.all(np.isfinite(points))
        bound = 1e-11 * np.abs(grid - geo.intercepts).max()
        np.testing.assert_allclose(points @ geo.slopes.T + geo.intercepts, grid, rtol=0, atol=bound)


class TestNoLapackAtTwoExperts:
    """At two experts a map needs no factorisation; at three, its geometry and embedding take one SVD."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for name in ("pinv", "matrix_rank", "norm"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: pytest.fail(f"np.linalg.{name} called"))
        return calls

    def test_two_experts_take_no_svd(self, svd_calls):
        sample = sample_from_gate(full_gate(np.array([[1.0, -2.0, 0.5]]), np.array([0.3])), 2, 3)
        rendered = render_map(embed_grid(gate_geometry(sample), default_score_grid(1)), sample)
        assert rendered.predictive_sd.shape == (41,)
        assert svd_calls == []

    @pytest.mark.parametrize("geometry, experts", [(gate_geometry, 3), (reduced_geometry, 5)])
    def test_more_experts_take_one_svd(self, svd_calls, geometry, experts):
        slopes = np.random.default_rng(17).normal(size=(experts - 1, 4))
        sample = sample_from_gate(full_gate(slopes, np.zeros(experts - 1)), experts, 4)
        embed_grid(geometry(sample), default_score_grid(2, points_per_axis=3))
        assert len(svd_calls) == 1


class TestEmbedGrid:
    def geometry(self, slopes, intercepts):
        return GateGeometry(slopes, intercepts, tuple(slopes))

    def test_intercept_point_maps_to_origin(self):
        slopes = np.array([[1.0, 0.5, -0.2], [0.3, -1.0, 0.8]])
        b = np.array([0.4, -0.7])
        geo = gate_geometry(sample_from_gate(full_gate(slopes, b), 3, 3))
        skeleton = embed_grid(geo, b[None, :])
        np.testing.assert_allclose(skeleton.points[0], 0.0, atol=1e-12)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            slopes = rng.normal(size=(2, 6))
            b = rng.normal(size=2)
            geo = gate_geometry(sample_from_gate(full_gate(slopes, b), 3, 6))
            grid = default_score_grid(2, points_per_axis=5)
            skeleton = embed_grid(geo, grid)
            recovered = skeleton.points @ slopes.T + b
            np.testing.assert_allclose(recovered, grid, atol=1e-8)

    def test_one_direction_grid_is_a_line(self):
        slopes = np.array([[1.0, 2.0, -1.0, 0.5]])
        geo = gate_geometry(sample_from_gate(full_gate(slopes, np.array([0.2])), 2, 4))
        grid = default_score_grid(1)
        skeleton = embed_grid(geo, grid)
        diffs = np.diff(skeleton.points, axis=0)
        direction = diffs[0] / np.linalg.norm(diffs[0])
        for d in diffs[1:]:
            assert abs(abs(d / np.linalg.norm(d) @ direction) - 1.0) < 1e-10

    def test_points_live_in_star_span(self):
        rng = np.random.default_rng(10)
        slopes = rng.normal(size=(2, 7))
        geo = gate_geometry(sample_from_gate(full_gate(slopes, np.zeros(2)), 3, 7))
        skeleton = embed_grid(geo, default_score_grid(2, points_per_axis=3))
        star = np.stack(geo.a_star)
        coef, residual, *_ = np.linalg.lstsq(star.T, skeleton.points.T, rcond=None)
        reconstructed = star.T @ coef
        np.testing.assert_allclose(reconstructed.T, skeleton.points, atol=1e-8)

    def test_dimension_mismatch(self):
        slopes = np.array([[1.0, 0.0]])
        geo = gate_geometry(sample_from_gate(full_gate(slopes, np.zeros(1)), 2, 2))
        with pytest.raises(ValueError):
            embed_grid(geo, default_score_grid(2))


class TestReduceSvd:
    def test_rank_two_matrix_span_preserved(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(2, 8))
        mixing = rng.normal(size=(4, 2))
        slopes = mixing @ base  # rank 2 by construction
        reduced = reduce_svd(slopes)
        # principal angles between row spaces are zero
        q1, _ = np.linalg.qr(slopes.T)
        q2, _ = np.linalg.qr(reduced.T)
        angles = np.linalg.svd(q1[:, :2].T @ q2[:, :2], compute_uv=False)
        np.testing.assert_allclose(angles, 1.0, atol=1e-10)

    def test_rank_one_rejected(self):
        slopes = np.outer([1.0, 2.0, 3.0], [0.5, -0.5, 1.0, 0.0])
        with pytest.raises(ValueError):
            reduce_svd(slopes)

    def test_eckart_young_optimum(self):
        rng = np.random.default_rng(12)
        slopes = rng.normal(size=(4, 10))
        reduced = reduce_svd(slopes)
        # lift = projection of the original onto the reduced row space
        lift = slopes @ np.linalg.pinv(reduced) @ reduced
        err = np.linalg.norm(slopes - lift)
        sv = np.linalg.svd(slopes, compute_uv=False)
        optimum = float(np.sqrt((sv[2:] ** 2).sum()))
        assert err == pytest.approx(optimum, abs=1e-9)

    def test_reduced_geometry_round_trip(self):
        rng = np.random.default_rng(13)
        slopes = rng.normal(size=(4, 9))
        sample = sample_from_gate(full_gate(slopes, rng.normal(size=4)), 5, 9)
        geo = reduced_geometry(sample)
        assert geo.slopes.shape == (2, 9)
        skeleton = embed_grid(geo, default_score_grid(2, points_per_axis=3))
        recovered = skeleton.points @ geo.slopes.T
        np.testing.assert_allclose(recovered, skeleton.grid, atol=1e-8)


class TestRenderMap:
    def test_constant_model_flat_surface(self):
        slopes = np.array([[1.0, 0.0]])
        sample = sample_from_gate(full_gate(slopes, np.zeros(1)), 2, 2)
        # zero expert slopes: predictive mean varies only through the gates
        geo = gate_geometry(sample)
        rendered = render_map(embed_grid(geo, default_score_grid(1)), sample)
        assert rendered.predictive_mean.std() < 0.3  # activation blending only
        const_experts = tuple(ExpertParams(1.0, np.zeros(2), 1.0) for _ in range(2))
        draws = tuple(
            ModelParams(const_experts, gate, behavior)
            for _, gate, behavior in (draw(sample, s) for s in range(sample.n_draws))
        )
        flat_sample = stack_draws(draws, 0.25, 1, 0)
        rendered = render_map(embed_grid(geo, default_score_grid(1)), flat_sample)
        np.testing.assert_allclose(rendered.predictive_mean, 1.0, atol=1e-12)
        np.testing.assert_allclose(rendered.predictive_sd, 1.0, atol=1e-12)

    def test_responses_near_the_largest_floats_do_not_overflow(self):
        # A random walk's steps vanish against an intercept of 1e307, so the draws spread in the slopes
        # and noise sds, and the behavior gate of one expert stays at its prior location, 0.
        rng = np.random.default_rng(16)
        slopes, log_sds = rng.normal(scale=0.5, size=(800, 1, 2)), rng.normal(scale=0.2, size=(800, 1, 1))
        experts = np.concatenate([np.full((800, 1, 1), 1e307), slopes, log_sds], axis=-1)
        sample = PosteriorSample(experts, np.zeros((800, 1, 3)), np.zeros((800, 3)), 0.25, 2, 0)
        _, mean, sd = _predictive_summary(sample, rng.normal(size=(50, 2)))
        assert np.all(mean == 1e307)
        np.testing.assert_allclose(sd, np.sqrt(np.mean(np.exp(2.0 * log_sds))), rtol=1e-12)

    def test_single_active_expert(self):
        # big positive intercept on the first row: expert 0 dominates everywhere
        slopes = np.array([[0.01, 0.0]])
        gate = full_gate(slopes, np.array([30.0]))
        sample = sample_from_gate(gate, 2, 2)
        geo = GateGeometry(slopes, np.array([30.0]), (slopes[0],))
        grid = np.linspace(29.0, 31.0, 11)[:, None]
        rendered = render_map(embed_grid(geo, grid), sample)
        np.testing.assert_allclose(rendered.activations[:, 0], 1.0, atol=1e-6)

    def test_star_direction_moves_only_own_logit(self):
        rng = np.random.default_rng(15)
        slopes = rng.normal(size=(2, 5))
        intercepts = rng.normal(size=2)
        sample = sample_from_gate(full_gate(slopes, intercepts), 3, 5)
        geo = gate_geometry(sample)
        x0 = rng.normal(size=5)
        for i in (0, 1):
            step = geo.a_star[i]
            other = 1 - i
            logits0 = slopes @ x0 + intercepts
            logits1 = slopes @ (x0 + 0.5 * step) + intercepts
            scale = np.linalg.norm(slopes)
            assert logits1[i] > logits0[i]
            assert abs(logits1[other] - logits0[other]) < 1e-10 * scale
            (w0, w1), _, _ = fused_moments(draw(sample, 0), np.stack([x0, x0 + 0.5 * step]))
            assert w1[i] > w0[i]
