"""Fused mixture-of-experts conditional density model.

Affine Gaussian experts are combined through two gates: a softmax mixing
gate that allocates covariate regions to experts, and a logistic behavior
gate whose output ``beta`` interpolates between a competitive mixture of
the experts (``beta -> 1``) and a single collaborative blend of all of
them (``beta -> 0``).

Everything in this module is a pure, deterministic function of parameters
and covariates; the sampling, scoring and explanation layers build on top
of it.  Mixture log-densities go through log-sum-exp so that the extreme
tail values visited by the anomaly score stay finite.  The gate, fusion and
density helpers that the sampler, scoring and explanation share work in
place on the temporaries they make, never on an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtr

__all__ = [
    "PriorSpec",
    "Dataset",
    "fused_moments",
    "conditional_logpdf_rows",
    "conditional_cdf_rows",
    "sample_conditional",
]

LOG_2PI = math.log(2.0 * math.pi)


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PriorSpec:
    """Laplace priors on mean and gate coefficients, log-normal on noise sds."""

    mean_coeff_location: float = 0.0
    mean_coeff_scale: float = 1.0
    gate_coeff_location: float = 0.0
    gate_coeff_scale: float = 1.0
    noise_log_location: float = 0.0
    noise_log_scale: float = 1.0

    def __post_init__(self):
        for name in ("mean_coeff_scale", "gate_coeff_scale", "noise_log_scale"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        # The constant terms of the mean-coefficient, log-sd and gate-coefficient log densities.
        mean, gate = (-np.log(2.0 * scale) for scale in (self.mean_coeff_scale, self.gate_coeff_scale))
        object.__setattr__(self, "_log_norms", (mean, -np.log(self.noise_log_scale) - 0.5 * LOG_2PI, gate))


@dataclass(frozen=True)
class Dataset:
    """Aligned finite covariate rows and responses with non-decreasing timestamps."""

    covariates: np.ndarray
    responses: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        y = _as_vector(self.responses, "responses")
        ts = np.asarray(self.timestamps)
        if x.ndim != 2:
            raise ValueError(f"covariates must be a matrix, got shape {x.shape}")
        if not (len(x) == len(y) == len(ts)):
            raise ValueError("covariates, responses and timestamps must align")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("covariates and responses must be finite")
        if len(ts) > 1 and np.any(ts[1:] < ts[:-1]):
            raise ValueError("timestamps must be non-decreasing")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.responses.shape[0]

    @property
    def n(self) -> int:
        return self.covariates.shape[1]

    def select(self, idx) -> "Dataset":
        """Row subset; ``idx`` must preserve chronological order."""
        return Dataset(self.covariates[idx], self.responses[idx], self.timestamps[idx])


# ---------------------------------------------------------------------------
# Gates and fusion
# ---------------------------------------------------------------------------


def _embed_rows(X) -> np.ndarray:
    """Affine embedding of every row of the covariate matrix ``X``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a matrix, got shape {X.shape}")
    return np.column_stack([np.ones(len(X)), X])


def _softmax_gate(gate_matrix, phi):
    """Mixing weights (..., M, rows) of the softmax gate at embedded rows ``phi``."""
    logits = gate_matrix @ phi.swapaxes(-1, -2)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite gate logits")
    logits -= logits.max(axis=-2, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-2, keepdims=True)
    return alpha


def _logistic_gate(behavior_coeffs, phi):
    """Behavior gate output ``beta`` (..., 1, rows) at embedded rows ``phi``: ``1 / (1 + exp(-logits))``
    in place, 0 where ``exp`` overflows, below a logit of about -709."""
    logits = behavior_coeffs[..., None, :] @ phi.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        np.exp(np.negative(logits, out=logits), out=logits)
    logits += 1.0
    return np.reciprocal(logits, out=logits)


def _blend(alpha, means, variances, alpha_rows=None):
    """The ``alpha``-weighted blend (..., 1, rows) of the expert means (..., M, rows) and variances (..., M).
    The variance contracts M in a matmul over ``alpha_rows``, a contiguous (..., rows, M) copy of ``alpha``
    made here unless given: ``variances[..., None, :] @ alpha`` rounds differently from three experts on."""
    alpha_rows = np.ascontiguousarray(alpha.swapaxes(-1, -2)) if alpha_rows is None else alpha_rows
    return (alpha * means).sum(axis=-2, keepdims=True), (alpha_rows @ variances[..., None]).swapaxes(-1, -2)


def _fuse(beta, rest, means, variances, blend):
    """Fused means and variances: each expert's move toward the ``blend``,
    keeping weight ``beta`` on its own and ``rest = 1 - beta`` on the blend."""
    blend_mean, blend_var = blend
    fused, fused_var = beta * means, beta * variances[..., None]
    fused += rest * blend_mean
    fused_var += rest * blend_var
    return fused, fused_var


def _moments_arrays(experts, gate_matrix, behavior_coeffs, phi):
    """Batch gate weights and fused Gaussian moments from raw arrays.

    ``phi`` holds embedded covariate rows.  The parameter arrays may carry
    any leading (draw) axes in front of their own shapes: ``experts``
    (M, n + 2, mean coefficients then log noise sd), ``gate_matrix``
    (M, n + 1) and ``behavior_coeffs`` (n + 1,).  The coefficients enter
    the matmul as a contiguous copy.  Returns ``(alpha, means, sds)``
    shaped ``(..., M, rows)``, experts before rows, so that reductions over
    the experts (axis -2) fold slice by slice from the left.
    """
    alpha = _softmax_gate(gate_matrix, phi)
    beta = _logistic_gate(behavior_coeffs, phi)
    coeffs, sds = np.ascontiguousarray(experts[..., :-1]), np.exp(experts[..., -1])
    means, variances = coeffs @ phi.swapaxes(-1, -2), sds**2
    fused, fused_var = _fuse(beta, 1.0 - beta, means, variances, _blend(alpha, means, variances))
    return alpha, fused, np.sqrt(fused_var, out=fused_var)


# ``params`` is one draw of the stack: ``(experts, gate_matrix, behavior_coeffs)``.  Only tests
# call this, the two *_rows densities and sample_conditional.  They stay because perfbench's tracer
# counts their calls by name, until its counters are retargeted to the draw-stack paths.
def fused_moments(params, X):
    """Mixing weights and fused per-expert moments at every row of ``X``, each (rows, M)."""
    return tuple(a.swapaxes(-1, -2) for a in _moments_arrays(*params, _embed_rows(X)))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _logsumexp(a, axis: int = -1):
    """Log of the sum of ``exp(a)`` along ``axis``, for float64 ``a``.

    This is scipy.special's real-input log-sum-exp arithmetic without its
    array-API dispatch, so results are bitwise equal to scipy's: the maxima
    are split out of the sum and the remainder enters through ``log1p``
    (Blanchard, Higham & Higham 2021). Slices whose result is not finite
    (all ``-inf``, an ``inf`` or a NaN) fall back to ``log(sum(exp(a)))``.
    scipy's ``where(s == 0, s, s / m)`` is a plain ``s / m``: ``s`` is 0 only where ``m`` is at least 1.

    An axis of one to three, the sampler's case at M <= 3, takes that
    arithmetic with the zero terms dropped, on slices of ``a`` and in place
    on temporaries made here.  Of one value ``x`` scipy returns
    ``log1p(0) + log(1) + x``, which is ``x + 0.0``.  Of more, a sorting
    network leaves the largest in ``hi`` and the others in ``lo`` (and
    ``mid``), and the result is ``hi + log1p(exp(lo - hi) [+ exp(mid - hi)])``.
    Without a tie for the largest, scipy's ``m`` is 1 and its ``s``,
    ``(e0 + e1) + e2`` with the largest's term an exact zero, sums the same
    terms, as IEEE addition is commutative.  Of two values a tie gives
    ``log1p(1)``, which equals scipy's ``log1p(0) + log(2)`` bit for bit; of
    three, a tie for the largest takes the general formula, and so does
    every slice if any ``hi`` is not finite, which is when a result would
    not be.  A 1-D ``a`` is reduced as one column, so that its slices are arrays.
    """
    k = a.shape[axis]
    if 1 <= k <= 3:
        if a.ndim == 1:
            return _logsumexp(a[:, None], axis=0)[0]
        lead = (slice(None),) * (axis % a.ndim)
        first = a[lead + (0,)]
        if k == 1:
            return first + 0.0
        second = a[lead + (1,)]
        hi, lo = np.maximum(first, second), np.minimum(first, second)
        if k == 3:
            mid = np.minimum(hi, a[lead + (2,)])
            np.maximum(hi, a[lead + (2,)], out=hi)
        if np.isfinite(hi).all():  # so no NaN either: np.maximum propagates it, and nothing below warns
            lo -= hi
            if k == 3:
                mid -= hi
            if k == 2 or (lo.max() < 0.0 and mid.max() < 0.0):
                np.exp(lo, out=lo)
                if k == 3:
                    lo += np.exp(mid, out=mid)
                np.log1p(lo, out=lo)
                lo += hi
                return lo
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=axis, keepdims=True, dtype=float)
        s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out.squeeze(axis=axis)[()]


def _log_weights(alpha):
    """``log(alpha)``, ``-inf`` where a mixing weight underflowed to zero."""
    with np.errstate(divide="ignore"):
        return np.log(alpha)


def _logpdf_from_moments(log_alpha, means, sds, y):
    """Mixture log density (..., rows) of responses ``y`` (..., 1, rows) under fused moments (..., M, rows)."""
    z = y - means
    z /= sds
    comp = -0.5 * z
    comp *= z
    comp -= np.log(sds, out=z)
    comp -= 0.5 * LOG_2PI
    comp += log_alpha
    return _logsumexp(comp, axis=-2)


def _cdf_from_moments(alpha, means, sds, y):
    return (alpha * ndtr((y[..., None, :] - means) / sds)).sum(axis=-2)


def conditional_logpdf_rows(params, X, y) -> np.ndarray:
    """Log density of each response given the matching covariate row."""
    alpha, means, sds = _moments_arrays(*params, _embed_rows(X))
    return _logpdf_from_moments(_log_weights(alpha), means, sds, _as_vector(y, "y")[None, :])


def conditional_cdf_rows(params, X, y) -> np.ndarray:
    """Mixture CDF of each response given the matching covariate row."""
    return _cdf_from_moments(*_moments_arrays(*params, _embed_rows(X)), _as_vector(y, "y"))


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def _laplace_logpdf(values, loc: float, scale: float, log_norm):
    return log_norm - np.abs(values - loc) / scale


def _log_prior_arrays(spec: PriorSpec, *, coeffs=None, log_sds=None, gate_matrix=None, behavior_coeffs=None):
    """Log prior of the parameter groups given, over any leading (chain)
    axes, in log-sd coordinates, where the log-normal prior on each noise sd
    is a plain normal.  Each group's terms are summed on their own, and the
    sums add as mean coefficients, log sds, free gate rows, behavior; the
    frozen last gate row carries no term."""
    mean_norm, noise_norm, gate_norm = spec._log_norms
    total = 0.0
    if coeffs is not None:
        values = _laplace_logpdf(coeffs, spec.mean_coeff_location, spec.mean_coeff_scale, mean_norm)
        total += np.add.reduce(values.reshape(*values.shape[:-2], -1), axis=-1)
    if log_sds is not None:
        z = (log_sds - spec.noise_log_location) / spec.noise_log_scale
        total += np.add.reduce(noise_norm - 0.5 * z * z, axis=-1)
    if gate_matrix is not None:
        values = _laplace_logpdf(gate_matrix[..., :-1, :], spec.gate_coeff_location, spec.gate_coeff_scale, gate_norm)
        total += np.add.reduce(values.reshape(*values.shape[:-2], -1), axis=-1)
    if behavior_coeffs is not None:
        values = _laplace_logpdf(behavior_coeffs, spec.gate_coeff_location, spec.gate_coeff_scale, gate_norm)
        total += np.add.reduce(values, axis=-1)
    return total


# ---------------------------------------------------------------------------
# Sampling from the conditional law
# ---------------------------------------------------------------------------


def _draw_from_moments(alpha, means, sds, uniforms, normals):
    """Responses and allocations: ``uniforms`` pick the expert through the
    mixing weights, ``normals`` are scaled by its fused moments.

    The pick counts the cumulative weights at or below the uniform, all but
    the last, which is taken as 1 so that rounding cannot leave a draw above
    the last bin.  The weights are non-negative, so the running sums, added
    slice by slice in ``np.cumsum``'s order, never decrease: the count is
    the first bin whose cumulative weight exceeds the uniform."""
    cum = alpha[..., 0, :].copy()
    z = np.zeros(np.broadcast_shapes(cum.shape, uniforms.shape), dtype=np.intp)
    for j in range(1, alpha.shape[-2]):
        z += cum <= uniforms
        cum += alpha[..., j, :]
    pick = z[..., None, :]
    mean = np.take_along_axis(means, pick, axis=-2)[..., 0, :]
    sd = np.take_along_axis(sds, pick, axis=-2)[..., 0, :]
    return mean + sd * normals, z


def sample_conditional(params, X, rng: np.random.Generator):
    """Draw one response per covariate row from the model's conditional law.

    Allocation is sampled from the mixing gate, then the response from the
    sampled expert's fused Gaussian.  Returns the responses and the sampled
    allocation indices.
    """
    alpha, means, sds = _moments_arrays(*params, _embed_rows(X))
    # Arguments evaluate left to right: all uniforms, then all normals.
    return _draw_from_moments(alpha, means, sds, rng.random(len(X)), rng.standard_normal(len(X)))
