import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadlsq.ddouble import _ceil_log2, dd_ratio


def exact(x):
    return Fraction(x[0]) + Fraction(x[1])


class TestFromFraction:
    """``dd_ratio`` rounds a rational, given as its integer ratio, once."""

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-7, 10), Fraction(2 ** 60 + 1, 3 ** 40)])
    def test_nearest(self, x):
        d = dd_ratio(x.numerator, x.denominator)
        assert d[0] == float(x)
        assert abs(exact(d) - x) <= abs(x) * Fraction(1, 2 ** 106)

    def test_beyond_double_range_is_infinite(self):
        assert dd_ratio(10 ** 400, 1) == (math.inf, 0.0)
        assert dd_ratio(-(10 ** 400), 3) == (-math.inf, 0.0)


class TestCeilLog2:
    """``_ceil_log2(x)`` is the least k with x <= 2^k, over every positive
    finite double: powers of two, their neighbours and subnormals."""

    @staticmethod
    def check(x):
        k = _ceil_log2(x)
        assert Fraction(2) ** (k - 1) < Fraction(x) <= Fraction(2) ** k

    @pytest.mark.parametrize("x", [
        5e-324, 1e-320, 2.0 ** -1022, math.nextafter(2.0 ** -1022, 0.0), 0.5, 1.0,
        math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 3.0, 2.0 ** 1023,
        math.nextafter(2.0 ** 1023, 0.0), math.nextafter(math.inf, 0.0),
    ])
    def test_edges(self, x):
        self.check(x)

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    def test_every_positive_double(self, x):
        self.check(x)
