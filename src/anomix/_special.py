"""NumPy forms of the special functions the package needs, so that no
process imports scipy; R-hat's inverse normal CDF is the standard library's.

* :func:`ndtr`, the standard normal CDF, is one rational function on the
  whole line: ``ndtr(a) = 0.5 * erfc(|a| / sqrt(2))`` below zero and one
  minus that above, with ``erfc(z) = exp(-z**2) * P(z) / Q(z)``.  ``P/Q``
  is a degree 9/10 fit to ``erfcx`` on [0, 27] (Lawson-weighted linearised
  least squares in 40-digit arithmetic, ``tools/fit_erfcx.py``), whose
  relative error is 5.1e-17 before rounding; past about 26.6, ``exp(z**2)``
  overflows and the tail is 0.  Against scipy it stays within 4.5e-16
  absolute and 2e-15 relative where scipy's value exceeds 1e-300.
* :func:`binom_logpmf` is the binomial log-probability at integer counts,
  from ``math.lgamma`` and ``log``/``log1p`` terms that vanish with their
  count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "binom_logpmf"]

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
# Elements per pass.  Its 11 work rows hold 8.25 times posterior.BLOCK_ELEMENTS, within the block
# temporaries a posterior-wide pass may hold (TestPassMemory, which 2**14 broke); 4096 ran 15% slower
# at monitor's block shape.  The work array, 1056 KB, is freed on every call, and glibc trims the heap
# top once its free space exceeds twice the largest mmapped block freed so far: this array, mmapped on
# its first call.  So a scoring pass faults in no fresh pages while the array exceeds the pass's other
# transients (about 800 KB at monitor's shape) plus glibc's 128 KB top pad: at 8192 it did not, and
# every monitor operation re-faulted about 1200 pages.
_NDTR_CHUNK = 12288


def ndtr(a) -> np.ndarray:
    """Standard normal CDF of every element of ``a``, as float64."""
    a = np.asarray(a, dtype=float)
    # A one-column matmul is a matrix-vector product, which rounds differently, so no pass is one
    # element wide: one element is evaluated twice over, and a last pass of one takes its predecessor.
    flat = np.repeat(a.reshape(-1), 2) if a.size == 1 else a.reshape(-1)
    out = np.empty(flat.size)
    width = min(_NDTR_CHUNK, max(flat.size, 1))
    work = np.empty((11, width))
    work[0] = 1.0
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, width):
            start = min(start, flat.size - 2)
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
    return out[: a.size].reshape(a.shape)[()]


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
