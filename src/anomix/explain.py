"""Gate geometry and low-dimensional explanation maps.

The mixing gate's slope matrix defines, for each expert, a direction in
covariate space along which only that expert's logit grows.  Projecting a
grid of gate scores back into covariate space through those directions
yields a fictitious dataset on which the model can be evaluated, turning
the fitted gates into a readable map of expert regions, predictive means
and predictive spread.

All geometry is computed from the posterior expectation of the gate
coefficients, with at most one SVD per map; the embedding builds its
pseudo-inverse from the directions, so a two-expert map calls no LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .posterior import PosteriorSample

__all__ = [
    "GateGeometry",
    "ExplanationMap",
    "gate_geometry",
    "reduce_svd",
    "reduced_geometry",
    "default_score_grid",
    "embed_grid",
    "render_map",
]

RANK_RTOL = 1e-8


@dataclass(frozen=True)
class GateGeometry:
    """Posterior-expected gate slopes with their disentangled directions.

    ``a_star[i]`` is the component of slope row ``i`` orthogonal to every
    other row; moving along it changes only expert ``i``'s gate logit.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    a_star: tuple

    @property
    def n_directions(self) -> int:
        return self.slopes.shape[0]


@dataclass(frozen=True)
class ExplanationMap:
    """A grid of gate scores embedded back into feature space.

    ``arrows`` holds, per input feature, its direction of effect in the
    grid's score coordinates (one column of the slope matrix).  Outputs
    are filled in by :func:`render_map`.
    """

    grid: np.ndarray
    points: np.ndarray
    arrows: np.ndarray
    activations: np.ndarray | None = None
    predictive_mean: np.ndarray | None = None
    predictive_sd: np.ndarray | None = None


def _geometry(slopes: np.ndarray, intercepts: np.ndarray, rank_error: str) -> GateGeometry:
    """Geometry of a full-row-rank slope matrix, from at most one SVD.

    A single row is its own orthogonal component, so it is ``a_star[0]``
    as it stands; an all-zero row has rank 0.  Two or more rows take one
    SVD, which gives both the rank and the Moore-Penrose pseudo-inverse:
    column i of the pseudo-inverse meets slope row i at 1 and every other
    row at 0, so it lies along ``a_star[i]``; scaled by its squared norm it
    is that row's component orthogonal to the others.  A rank-deficient
    matrix raises ``rank_error``, formatted with the achieved ``rank``.
    """
    if len(slopes) == 1:
        if not slopes.any():
            raise ValueError(rank_error.format(rank=0))
        return GateGeometry(slopes, intercepts, (slopes[0],))
    u, sv, vt = np.linalg.svd(slopes, full_matrices=False)
    rank = (sv > RANK_RTOL * sv[0]).sum()
    if rank < len(slopes):
        raise ValueError(rank_error.format(rank=rank))
    pinv = vt.T @ ((1.0 / sv)[:, None] * u.T)  # np.linalg.pinv's arithmetic, on this SVD
    a_star = pinv.T / (pinv * pinv).sum(axis=0)[:, None]
    return GateGeometry(slopes, intercepts, tuple(a_star))


def gate_geometry(sample: PosteriorSample) -> GateGeometry:
    """Disentangled gate directions from the posterior-expected gate matrix.

    Requires the expected slope matrix (frozen reference row dropped) to
    have full row rank; degenerate gates are reported with the achieved
    rank, and with more than two gate rows the caller can fall back to the
    SVD reduction.
    """
    expected = sample.mixing.mean(axis=0)[:-1]
    if expected.shape[0] == 0:
        raise ValueError("a single-expert gate has no directions to explain")
    # reduce_svd needs more than two gate rows; with two or fewer no map exists.
    advice = "use the SVD reduction instead" if len(expected) > 2 else "no 2-D map exists"
    message = f"expected gate matrix has rank {{rank}} < {len(expected)}; {advice}"
    return _geometry(expected[:, 1:], expected[:, 0], message)


def reduce_svd(slopes: np.ndarray) -> np.ndarray:
    """Rank-2 reduction of a slope matrix with more than two rows.

    Rows of the result are the two leading right-singular directions
    scaled by their singular values, spanning the best two-dimensional
    approximation of the gate's row space.
    """
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape[0] <= 2:
        raise ValueError("SVD reduction applies only to more than two gate rows")
    _, sv, vt = np.linalg.svd(slopes, full_matrices=False)
    if len(sv) < 2 or sv[1] <= RANK_RTOL * sv[0]:
        raise ValueError("fewer than two significant singular values; no 2D reduction exists")
    return sv[:2, None] * vt[:2]


def reduced_geometry(sample: PosteriorSample) -> GateGeometry:
    """Two-dimensional geometry for many-expert gates via SVD.

    Grid coordinates are the two principal score directions (centered, so
    intercepts are zero); they no longer correspond to single experts.
    ``reduce_svd``'s rows are orthogonal and refused below rank 2, so each
    is its own disentangled direction and no second factorisation is taken.
    """
    rows = reduce_svd(sample.mixing.mean(axis=0)[:-1, 1:])
    return GateGeometry(rows, np.zeros(2), tuple(rows))


def default_score_grid(n_directions: int, points_per_axis: int = 41) -> np.ndarray:
    """Regular grid over gate scores on [-4, 4], wide enough to reach near-saturation."""
    axis = np.linspace(-4.0, 4.0, points_per_axis)
    if n_directions == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * n_directions), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def embed_grid(geometry: GateGeometry, score_grid) -> ExplanationMap:
    """Lift a grid of gate scores to fictitious covariate points.

    Each point is the minimum-norm solution of ``slopes @ x = v - b``, so
    the gate recovers the requested scores exactly while features outside
    the gated subspace stay at 0, the training means of the standardised
    covariates.
    """
    grid = np.asarray(score_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.shape[1] != geometry.n_directions:
        raise ValueError(
            f"grid dimension {grid.shape[1]} does not match {geometry.n_directions} directions"
        )
    # Column i of the pseudo-inverse is a_star[i] / |a_star[i]|^2, taken on each
    # row scaled by its largest entry so that no square overflows or underflows.
    star = np.stack(geometry.a_star)
    scale = np.abs(star).max(axis=1, keepdims=True)
    unit = star / scale
    pinv_t = unit / ((unit * unit).sum(axis=1, keepdims=True) * scale)
    points = (grid - geometry.intercepts) @ pinv_t
    arrows = geometry.slopes.T
    return ExplanationMap(grid=grid, points=points, arrows=arrows)


def _predictive_summary(sample: PosteriorSample, X):
    """Posterior-mean activations, predictive mean and predictive sd at rows of ``X``.

    The predictive law at a row is the draw-average of the per-draw
    mixtures, so its variance combines each draw's mixture variance with
    the spread of the draw means.  Both moments are taken about the first
    draw's mixture mean at each row, so that responses near the largest
    floats do not overflow where the draws agree.
    """
    n_rows = len(X)
    act = np.zeros((n_rows, sample.n_experts))
    centre, offset, second_moment = None, np.zeros(n_rows), np.zeros(n_rows)
    for _, inverse, alpha, means, variances in sample.moment_blocks(X):
        act += alpha[inverse].sum(axis=0).T
        mixture_mean = (alpha * means).sum(axis=-2)
        centre = mixture_mean[inverse[0]].copy() if centre is None else centre
        offset += (mixture_mean - centre)[inverse].sum(axis=0)
        second_moment += (alpha * (variances + (means - centre) ** 2)).sum(axis=-2)[inverse].sum(axis=0)
    n_draws = sample.n_draws
    mean_offset = offset / n_draws
    predictive_var = np.maximum(second_moment / n_draws - mean_offset**2, 0.0)
    return act / n_draws, centre + mean_offset, np.sqrt(predictive_var)


def render_map(skeleton: ExplanationMap, sample: PosteriorSample) -> ExplanationMap:
    """Evaluate the model over the embedded grid.

    Fills in posterior-mean expert activations, the predictive mean and the
    predictive standard deviation at every grid point.
    """
    activations, mean, sd = _predictive_summary(sample, skeleton.points)
    return replace(skeleton, activations=activations, predictive_mean=mean, predictive_sd=sd)
