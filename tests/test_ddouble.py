import math
from fractions import Fraction

import pytest

from quadlsq.ddouble import from_fraction


def exact(x):
    return Fraction(x[0]) + Fraction(x[1])


class TestFromFraction:
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-7, 10), Fraction(2 ** 60 + 1, 3 ** 40)])
    def test_nearest(self, x):
        d = from_fraction(x)
        assert d[0] == float(x)
        assert abs(exact(d) - x) <= abs(x) * Fraction(1, 2 ** 106)

    def test_beyond_double_range_is_infinite(self):
        assert from_fraction(Fraction(10 ** 400)) == (math.inf, 0.0)
        assert from_fraction(Fraction(-(10 ** 400), 3)) == (-math.inf, 0.0)
