import math
from fractions import Fraction

import pytest

from quadlsq.ddouble import DD, exact_diff, from_fraction


def exact(x):
    return Fraction(x[0]) + Fraction(x[1])


class TestExactDiff:
    @pytest.mark.parametrize("a,b", [(1.0, 1e-20), (0.3, -0.7), (2.0, 2.0), (-1e300, 3.5)])
    def test_exact(self, a, b):
        d = exact_diff(a, b)
        assert isinstance(d, DD)
        assert exact(d) == Fraction(a) - Fraction(b)
        assert d[0] == a - b

    def test_low_part_zero_when_difference_is_a_double(self):
        assert exact_diff(0.75, 0.5) == (0.25, 0.0)


class TestFromFraction:
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-7, 10), Fraction(2 ** 60 + 1, 3 ** 40)])
    def test_nearest(self, x):
        d = from_fraction(x)
        assert d[0] == float(x)
        assert abs(exact(d) - x) <= abs(x) * Fraction(1, 2 ** 106)

    def test_beyond_double_range_is_infinite(self):
        assert from_fraction(Fraction(10 ** 400)) == (math.inf, 0.0)
        assert from_fraction(Fraction(-(10 ** 400), 3)) == (-math.inf, 0.0)
