import math
from fractions import Fraction

import pytest

from quadlsq.ddouble import dd_ratio


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
