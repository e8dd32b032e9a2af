"""NumPy forms of the special functions the package needs, so that no
process imports scipy.

* :func:`ndtr`, the standard normal CDF, is one rational function on the
  whole line: ``ndtr(a) = 0.5 * erfc(|a| / sqrt(2))`` below zero and one
  minus that above, with ``erfc(z) = exp(-z**2) * P(z) / Q(z)``.  ``P/Q``
  is a degree 9/10 fit to ``erfcx`` on [0, 27] (Lawson-weighted linearised
  least squares in 40-digit arithmetic, ``tools/fit_erfcx.py``), whose
  relative error is 5.1e-17 before rounding; past about 26.6, ``exp(z**2)``
  overflows and the tail is 0.  Against scipy it stays within 4.5e-16
  absolute and 2e-15 relative where scipy's value exceeds 1e-300.
* :func:`ndtri`, its inverse, is Wichura's AS241 (1988, *Appl. Stat.*
  37:477), within 8 ulp of scipy.
* :func:`binom_logpmf` is the binomial log-probability at integer counts,
  from ``math.lgamma`` and ``log``/``log1p`` terms that vanish with their
  count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri", "binom_logpmf"]

# ndtr works on x = -a / sqrt(2), whose sign bit is set exactly when a > 0 or a is +0.
_NEG_SQRT1_2 = -0.70710678118654752440

# P (half of it, so that the quotient is ndtr's tail) and Q of erfcx(z) ~ P(z) / Q(z), in powers of z,
# split into their even and odd parts, each in powers of w = z**2: rows P_even, Q_even, P_odd, Q_odd.
# All are scaled by 2**-64, which cancels exactly, so that Q(z) * exp(z**2) stays finite wherever
# exp(z**2) does.  Every coefficient is positive, so the sums lose nothing to cancellation.
_P = [
    1.0, 2.1902155817975686, 2.3731982057250867, 1.6336975655411454, 0.7796824406819572,
    0.26643161049571445, 0.06518122685766772, 0.011046249068556079, 0.001185637181953799, 6.23011573748761e-05,
]
_Q = [
    1.0, 3.3185947488930676, 5.1178313844092065, 4.842209909575732, 3.122121960165639, 1.4386656906826483,
    0.48197200795179634, 0.1165814600124667, 0.019634179666146376, 0.0021014871888792165, 0.00011042592630532577,
]
_ERFCX = np.zeros((4, 6))
_ERFCX[0, :5], _ERFCX[2, :5] = 0.5 * np.array(_P[0::2]), 0.5 * np.array(_P[1::2])
_ERFCX[1], _ERFCX[3, :5] = _Q[0::2], _Q[1::2]
_ERFCX *= 2.0**-64
# |x| is clipped here, past which exp(x**2) is inf and the tail 0, so that an infinite x gives no inf / inf.
_Z_MAX = 28.0
# Elements per pass.  Its 11 work rows hold 5.5 times posterior.BLOCK_ELEMENTS, within the block
# temporaries a posterior-wide pass may hold (TestPassMemory); 4096 ran 15% slower at monitor's
# block shape, and 2**14 broke that budget.
_NDTR_CHUNK = 8192


def ndtr(a) -> np.ndarray:
    """Standard normal CDF of every element of ``a``, as float64."""
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    out = np.empty(flat.size)
    width = min(_NDTR_CHUNK, max(flat.size, 1))
    work = np.empty((11, width))
    work[0] = 1.0
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, width):
            x = out[start : start + width]
            m = x.size
            # Rows 0-5 of the table are 1, w, w**2 .. w**5 for w = x**2; the matmul gives P_even .. Q_odd.
            table, w, parts, z = work[:6, :m], work[1, :m], work[6:10, :m], work[10, :m]
            np.multiply(flat[start : start + m], _NEG_SQRT1_2, out=x)
            np.minimum(np.abs(x, out=z), _Z_MAX, out=z)
            np.multiply(z, z, out=w)
            np.multiply(w, w, out=table[2])
            np.multiply(table[2], w, out=table[3])
            np.multiply(table[2], table[2], out=table[4])
            np.multiply(table[4], w, out=table[5])
            np.matmul(_ERFCX, table, out=parts)
            p, q, odd = parts[0], parts[1], parts[2:]
            odd *= z
            parts[:2] += odd
            q *= np.exp(w, out=w)
            tail = np.divide(p, q, out=p)
            # |1 - tail| above zero, |0 - tail| below it: the sign bit of x picks which.  At a = +-0
            # either gives the tail, 1/2.
            np.signbit(x, out=x)
            x -= tail
            np.abs(x, out=x)
    return out.reshape(a.shape)[()]


# Wichura's AS241 (PPND16): numerator and denominator coefficients, constant term first, of the
# central rational in r = 0.180625 - q**2 and of the two tail rationals in r = sqrt(-log(min(p, 1 - p))).
_AS241_CENTRAL = (
    [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3],
    [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3],
)
_AS241_NEAR = (
    [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4],
    [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9],
)
_AS241_FAR = (
    [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7],
    [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15],
)


def _rational(coeffs, r):
    num, den = (np.full_like(r, c[-1]) for c in coeffs)
    for cn, cd in zip(coeffs[0][-2::-1], coeffs[1][-2::-1]):
        num *= r
        num += cn
        den *= r
        den += cd
    return np.divide(num, den, out=num)


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF of every element of ``p``: -inf at 0, inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.full_like(q, np.nan)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = (p > 0.0) & (p < 1.0) & ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    x = np.empty_like(r)
    x[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    x[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    out[tail] = np.copysign(x, qt)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out[()]


def binom_logpmf(k, n: int, p) -> np.ndarray:
    """Log-probability of ``k`` successes in ``n`` trials of success rate ``p``, elementwise over
    integer counts ``k`` and rates ``p``; a term whose count is zero is zero, whatever its log."""
    k = np.asarray(k)
    log_factorials = [math.lgamma(i + 1) + math.lgamma(n - i + 1) for i in k.ravel().tolist()]
    log_choose = math.lgamma(n + 1) - np.array(log_factorials)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(k == 0, 0.0, k * np.log(p))
        misses = np.where(k == n, 0.0, (n - k) * np.log1p(-p))
    return log_choose.reshape(k.shape) + hits + misses
