"""The NumPy special functions against scipy's, within the bounds ``anomix._special`` states.

``ndtr`` stays within 4.5e-16 of scipy's everywhere and within 2e-15 of it, relatively, wherever
scipy's value exceeds 1e-300.  Its grid reaches both tails, past -8 and 8 down to where it underflows.
"""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.stats import binom

from anomix._special import binom_logpmf, ndtr

NDTR_ABS, NDTR_REL = 4.5e-16, 2e-15


def ndtr_grid():
    rng = np.random.default_rng(0)
    magnitudes = 10.0 ** rng.uniform(-300.0, np.log10(40.0), 50_000)
    return np.concatenate([
        np.linspace(-40.0, 40.0, 400_001),
        rng.standard_normal(100_000),
        magnitudes,
        -magnitudes,
        [-38.5, -37.5, -8.0, 8.0, 37.5, 1e300, -1e300, 5e-324, -5e-324],
    ])


def quietly(f, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args, **kwargs)


class TestNdtr:
    def test_within_bounds_of_scipy(self):
        a = ndtr_grid()
        got, want = quietly(ndtr, a), scipy_ndtr(a)
        assert np.abs(got - want).max() <= NDTR_ABS
        big = want > 1e-300
        assert np.all(np.abs(got[big] - want[big]) <= NDTR_REL * want[big])

    def test_monotone_and_symmetric(self):
        a = np.linspace(0.0, 40.0, 400_001)
        upper, lower = ndtr(a), ndtr(-a)
        assert np.all(np.diff(upper) >= 0.0) and np.all(np.diff(lower) <= 0.0)
        # Both tails come from one value at |a|, so ndtr(-a) + ndtr(a) is 1 to one rounding.
        assert np.abs(upper + lower - 1.0).max() <= 2.0**-53

    def test_special_values(self):
        a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0])
        got = quietly(ndtr, a)
        assert np.array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0], equal_nan=True)

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (40, 2, 202), (3, 5000)])
    def test_shapes(self, shape):
        # (40, 2, 202) and (3, 5000) take two passes of 12288 elements; the argument is left as it was.
        a = np.random.default_rng(1).normal(scale=5.0, size=shape)
        before = a.copy()
        got = ndtr(a)
        assert np.shape(got) == shape
        assert np.abs(got - scipy_ndtr(a)).max(initial=0.0) <= NDTR_ABS
        assert np.array_equal(a, before)

    def test_value_does_not_depend_on_the_length(self):
        # One-element passes (a size-1 input, or 1 past a multiple of 12288) once went through a
        # matrix-vector product, which rounds differently.
        rng = np.random.default_rng(3)
        a = rng.normal(scale=5.0, size=40_000)
        whole = ndtr(a)
        lengths = [1, 2, 3, 12_287, 12_288, 12_289, 24_577, 36_865, *rng.integers(1, 40_000, 50)]
        for n in lengths:
            assert ndtr(a[:n]).tobytes() == whole[:n].tobytes(), n
        assert all(ndtr(value).tobytes() == whole[i].tobytes() for i, value in enumerate(a[:200]))


class TestBinomLogpmf:
    def test_matches_scipy_including_certain_outcomes(self):
        # A count of 0 at rate 0 and a count of n at rate 1 are certain: log-probability 0.
        k, p = np.array([0, 7, 3, 0, 7]), np.array([0.0, 1.0, 0.4, 0.4, 0.999])
        got = quietly(binom_logpmf, k, 7, p)
        assert np.allclose(got, binom.logpmf(k, 7, p), rtol=0.0, atol=1e-13)
        assert got[0] == got[1] == 0.0

    def test_impossible_outcomes_are_minus_infinity(self):
        got = quietly(binom_logpmf, np.array([1, 6]), 7, np.array([0.0, 1.0]))
        assert np.array_equal(got, [-np.inf, -np.inf])
