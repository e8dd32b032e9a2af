"""Fused mixture-of-experts conditional density model.

Affine Gaussian experts are combined through two gates: a softmax mixing
gate that allocates covariate regions to experts, and a logistic behavior
gate whose output ``beta`` interpolates between a competitive mixture of
the experts (``beta -> 1``) and a single collaborative blend of all of
them (``beta -> 0``).

Everything in this module is a pure, deterministic function of parameters
and covariates; the sampling, scoring and explanation layers build on top
of it.  Mixture log-densities go through log-sum-exp so that the extreme
tail values visited by the anomaly score stay finite.  The gate and fusion
helpers that the sampler, scoring and explanation share work in place on the
temporaries they make, never on an argument; the mixture log-density and CDF
kernels work in place on the fused variances (and residuals) their callers make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise ValueError("non-finite gate logits")
    logits -= np.maximum.reduce(logits, axis=-2, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha /= np.add.reduce(alpha, axis=-2, keepdims=True)
    return alpha


def _logistic_gate(behavior_coeffs, phi):
    """Behavior gate output ``beta`` (..., 1, rows) at embedded rows ``phi``: ``1 / (1 + exp(-logits))``
    in place, 0 where ``exp`` overflows, below a logit of about -709."""
    logits = behavior_coeffs[..., None, :] @ phi.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        np.exp(np.negative(logits, out=logits), out=logits)
    logits += 1.0
    return np.reciprocal(logits, out=logits)


def _blend(alpha, means, variances):
    """The ``alpha``-weighted blend (..., 1, rows) of the expert means (..., M, rows) and variances (..., M),
    each folded over the experts from the left."""
    blend_mean = np.add.reduce(alpha * means, axis=-2, keepdims=True)
    return blend_mean, np.add.reduce(alpha * variances[..., None], axis=-2, keepdims=True)


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
    (M, n + 1) and ``behavior_coeffs`` (n + 1,).  Returns ``(alpha, means, variances)``
    shaped ``(..., M, rows)``, the fused moments as :func:`_fuse` makes them, experts
    before rows, so that reductions over the experts (axis -2) fold slice by slice from the left.
    """
    alpha = _softmax_gate(gate_matrix, phi)
    beta = _logistic_gate(behavior_coeffs, phi)
    coeffs, variances = experts[..., :-1], np.square(np.exp(experts[..., -1]))
    means = coeffs @ phi.swapaxes(-1, -2)
    return (alpha, *_fuse(beta, 1.0 - beta, means, variances, _blend(alpha, means, variances)))


# ``params`` is one draw of the stack: ``(experts, gate_matrix, behavior_coeffs)``.  Only tests
# call this, the two *_rows densities and sample_conditional.  They stay because perfbench's tracer
# counts their calls by name, until its counters are retargeted to the draw-stack paths.
def fused_moments(params, X):
    """Mixing weights, fused means and fused variances at every row of ``X``, each (rows, M)."""
    return tuple(a.swapaxes(-1, -2) for a in _moments_arrays(*params, _embed_rows(X)))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _logsumexp(a, axis: int = -1):
    """Log of the sum of ``exp(a)`` along ``axis``, for float64 ``a``.

    Within ``4 * eps * max(1, |x|)`` of scipy.special.logsumexp's ``x`` where
    that is finite, and equal to it where it is not (an ``inf`` gives ``inf``,
    a NaN NaN and an all ``-inf`` slice ``-inf``); finite input raises no
    floating-point warning.  Each slice is shifted by its maximum, so that no
    term exceeds 1 (Blanchard, Higham & Higham 2021), or by 0 where that is
    not finite.

    An axis of one to three of an array of two or more dimensions, the
    sampler's case at M <= 3, is reduced on slices of ``a``, in place on
    temporaries made here.  One value ``x`` gives ``x + 0.0``.  Of more, a
    sorting network leaves the largest in ``hi`` and the others in ``lo`` (and
    ``mid``), and the result is ``hi + log1p(exp(lo - hi) [+ exp(mid - hi)])``;
    a slice whose ``hi`` is not finite has ``hi`` as its result.
    """
    k = a.shape[axis]
    if 1 <= k <= 3 and a.ndim > 1:
        lead = (slice(None),) * (axis % a.ndim)
        first = a[lead + (0,)]
        if k == 1:
            return first + 0.0
        second = a[lead + (1,)]
        hi, lo = np.maximum(first, second), np.minimum(first, second)
        if k == 3:
            mid = np.minimum(hi, a[lead + (2,)])
            np.maximum(hi, a[lead + (2,)], out=hi)
        finite = np.isfinite(hi)  # so no NaN either: np.maximum propagates it
        if not finite.all():  # reduce finite stand-ins where it is not, so that nothing below warns
            return np.where(finite, _logsumexp(np.where(np.expand_dims(finite, axis), a, 0.0), axis), hi)
        lo -= hi
        np.exp(lo, out=lo)
        if k == 3:
            mid -= hi
            lo += np.exp(mid, out=mid)
        np.log1p(lo, out=lo)
        lo += hi
        return lo
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True))
    out += shift
    return out.squeeze(axis=axis)[()]


def _log_weights(alpha):
    """``log(alpha) - log(2 pi) / 2``: the log mixing weights with the Gaussian density's constant folded in, as
    :func:`_logpdf_from_moments` reads them, ``-inf`` where a weight underflowed to zero.  Callers run it under
    ``np.errstate(divide="ignore")``, which the sampler enters once per run."""
    log_alpha = np.log(alpha)
    log_alpha -= 0.5 * LOG_2PI
    return log_alpha


def _logpdf_from_moments(log_alpha, residuals, variances):
    """Mixture log density (..., rows): the log-sum-exp over the experts of ``log_alpha - (r**2 / v + log v) / 2``,
    from each expert's residuals ``r = fused mean - y`` and fused variances ``v``, (..., M, rows), and the
    :func:`_log_weights` ``log_alpha``.  Works in place on ``residuals`` and ``variances``."""
    residuals *= residuals
    residuals /= variances
    residuals += np.log(variances, out=variances)
    residuals *= -0.5
    residuals += log_alpha
    return _logsumexp(residuals, axis=-2)


def _cdf_from_moments(alpha, means, variances, y):
    """Mixture CDF (..., rows) at ``y`` from the moments (..., M, rows); takes the sds in place on ``variances``."""
    return (alpha * ndtr((y[..., None, :] - means) / np.sqrt(variances, out=variances))).sum(axis=-2)


@np.errstate(divide="ignore")
def conditional_logpdf_rows(params, X, y) -> np.ndarray:
    """Log density of each response given the matching covariate row."""
    alpha, means, variances = _moments_arrays(*params, _embed_rows(X))
    means -= _as_vector(y, "y")
    return _logpdf_from_moments(_log_weights(alpha), means, variances)


def conditional_cdf_rows(params, X, y) -> np.ndarray:
    """Mixture CDF of each response given the matching covariate row."""
    return _cdf_from_moments(*_moments_arrays(*params, _embed_rows(X)), _as_vector(y, "y"))


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def _log_prior_arrays(spec: PriorSpec, *, coeffs=None, log_sds=None, gate_matrix=None, behavior_coeffs=None):
    """Log prior of the parameter groups given, over any leading (chain)
    axes, in log-sd coordinates, where the log-normal prior on each noise sd
    is a plain normal.  Each group sums to ``count * log_norm - sum(|value -
    loc|) / scale``, or ``- sum((log_sd - loc)**2) / (2 scale**2)`` for the
    log sds, and the sums add as mean coefficients, log sds, free gate rows,
    behavior; the frozen last gate row carries no term."""
    mean_norm, noise_norm, gate_norm = spec._log_norms
    total = 0.0
    if coeffs is not None:
        dev = np.abs(coeffs - spec.mean_coeff_location)
        total = dev.shape[-2] * dev.shape[-1] * mean_norm - np.add.reduce(dev, axis=(-2, -1)) / spec.mean_coeff_scale
    if log_sds is not None:
        z = log_sds - spec.noise_log_location
        total += z.shape[-1] * noise_norm - np.add.reduce(z * z, axis=-1) / (2.0 * spec.noise_log_scale**2)
    if gate_matrix is not None:
        dev = np.abs(gate_matrix[..., :-1, :] - spec.gate_coeff_location)
        total += dev.shape[-2] * dev.shape[-1] * gate_norm - np.add.reduce(dev, axis=(-2, -1)) / spec.gate_coeff_scale
    if behavior_coeffs is not None:
        dev = np.abs(behavior_coeffs - spec.gate_coeff_location)
        total += dev.shape[-1] * gate_norm - np.add.reduce(dev, axis=-1) / spec.gate_coeff_scale
    return total


# ---------------------------------------------------------------------------
# Sampling from the conditional law
# ---------------------------------------------------------------------------


def _draw_from_moments(alpha, means, variances, uniforms, normals, inverse):
    """Responses and allocations: ``uniforms`` pick the expert through the
    mixing weights; ``normals`` scale by the root of its fused variance, shift by its mean.
    The moments are (distinct draws, M, rows), and draw i of the (draws,
    rows) ``uniforms`` and ``normals`` takes row ``inverse[i]``.

    The pick counts the cumulative weights at or below the uniform, all but
    the last, which is taken as 1 so that rounding cannot leave a draw above
    the last bin.  The weights are non-negative, so the running sums, added
    slice by slice in ``np.cumsum``'s order, never decrease: the count is
    the first bin whose cumulative weight exceeds the uniform."""
    cum = alpha[inverse, 0]
    z = np.zeros(uniforms.shape, dtype=np.intp)
    for j in range(1, alpha.shape[-2]):
        z += cum <= uniforms
        cum += alpha[inverse, j]
    pick = (inverse[:, None], z, np.arange(z.shape[-1]))
    return means[pick] + np.sqrt(variances[pick]) * normals, z


def sample_conditional(params, X, rng: np.random.Generator):
    """Draw one response per covariate row from the model's conditional law.

    Allocation is sampled from the mixing gate, then the response from the
    sampled expert's fused Gaussian.  Returns the responses and the sampled
    allocation indices.
    """
    moments = (a[None] for a in _moments_arrays(*params, _embed_rows(X)))  # a one-draw stack
    uniforms, normals = rng.random(len(X))[None], rng.standard_normal(len(X))[None]  # all uniforms, then all normals
    y, z = _draw_from_moments(*moments, uniforms, normals, np.zeros(1, np.intp))
    return y[0], z[0]
