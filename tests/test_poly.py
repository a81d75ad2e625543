import math
import re
from fractions import Fraction

import numpy as np
import pytest

from quadlsq import Interval, Polynomial
from quadlsq.ddouble import DD

EPS = 2.0 ** -52


def frac_integral(coeffs, a=Fraction(-1), b=Fraction(1)):
    """Exact definite integral of a float-coefficient polynomial."""
    return sum(
        Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        for k, c in enumerate(coeffs)
    )


class TestMulLinear:
    def test_constant_times_x_plus_one(self):
        p = Polynomial([1.0]).mul_linear(-1.0)
        assert p.coeffs == (1.0, 1.0)

    def test_simpson_phi2(self):
        # (x + 1) * x = x^2 + x
        p = Polynomial([1.0, 1.0]).mul_linear(0.0)
        assert p.coeffs == (0.0, 1.0, 1.0)

    def test_quarter_shifted_cubic(self):
        # (x^2 - 1/4)(x + 1) = x^3 + x^2 - x/4 - 1/4, expanded by hand
        p = Polynomial([-0.25, 0.0, 1.0]).mul_linear(-1.0)
        assert p.coeffs == (-0.25, -0.25, 1.0, 1.0)

    def test_degree_grows_by_one(self):
        p = Polynomial([3.0, 0.0, 2.0])
        assert p.mul_linear(0.7).degree() == p.degree() + 1

    @pytest.mark.parametrize("degree", [1, 5, 17, 40])
    def test_eval_at_root_is_tiny(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1.0, 1.0, size=degree)
        root = float(rng.uniform(-1.0, 1.0))
        p = Polynomial(coeffs).mul_linear(root)
        bound = sum(abs(c) * abs(root) ** k for k, c in enumerate(p.coeffs))
        assert abs(p.eval(root)) <= 4.0 * EPS * bound


class TestEval:
    def test_linear_at_one(self):
        assert Polynomial([1.0, 1.0]).eval(1.0) == 2.0

    def test_quadratic_at_one(self):
        # (x + 1) x at x = 1
        assert Polynomial([0.0, 1.0, 1.0]).eval(1.0) == 2.0

    def test_zero_polynomial(self):
        zero = Polynomial([0.0])
        for x in (-3.0, 0.0, 0.5, 40.0):
            assert zero.eval(x) == 0.0

    def test_constant_is_exact(self):
        assert Polynomial([0.1]).eval(12345.678) == 0.1

    def test_callable_alias(self):
        p = Polynomial([1.0, 2.0])
        assert p(3.0) == p.eval(3.0) == 7.0


class TestIntegrate:
    def test_constant(self):
        assert Polynomial([1.0]).integrate() == 2.0

    def test_simpson_mu2(self):
        # (x + 1) x over (-1, 1) = 2/3
        val = Polynomial([0.0, 1.0, 1.0]).integrate()
        assert val == pytest.approx(2.0 / 3.0, abs=1e-16)

    def test_simpson_principal_moment(self):
        # (x+1)^2 x (x-1) = x^4 + x^3 - x^2 - x, integral -4/15
        q4 = (
            Polynomial([1.0])
            .mul_linear(-1.0)
            .mul_linear(0.0)
            .mul_linear(1.0)
            .mul_linear(-1.0)
        )
        assert q4.coeffs == (0.0, -1.0, -1.0, 1.0, 1.0)
        assert q4.integrate() == pytest.approx(-4.0 / 15.0, abs=1e-16)

    def test_general_interval(self):
        # x^2 over (0, 2) = 8/3
        val = Polynomial([0.0, 0.0, 1.0]).integrate(Interval(0.0, 2.0))
        assert val == pytest.approx(8.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_rational_integral(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=41)
        got = Polynomial(coeffs)._integrate_dd(Interval())
        exact = frac_integral(coeffs)
        got_frac = Fraction(got[0]) + Fraction(got[1])
        scale = sum(Fraction(abs(c)) for c in coeffs) * 2
        assert abs(got_frac - exact) <= scale / 2 ** 100

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, seed):
        # alpha, beta are powers of two and p, r occupy disjoint
        # coefficient slots, so alpha*p + beta*r has exact float
        # coefficients and the identity is tested at the extended
        # accumulator's precision
        rng = np.random.default_rng(100 + seed)
        mask = np.arange(41) % 3 == 0
        p = np.where(mask, rng.uniform(-1.0, 1.0, size=41), 0.0)
        r = np.where(~mask, rng.uniform(-1.0, 1.0, size=41), 0.0)
        alpha, beta = 0.5, -4.0
        comb = alpha * p + beta * r
        lhs = Polynomial(comb)._integrate_dd(Interval())
        ip = Polynomial(p)._integrate_dd(Interval())
        ir = Polynomial(r)._integrate_dd(Interval())
        rhs = ip * alpha + ir * beta
        diff = abs(float(lhs - rhs))
        scale = float(np.abs(comb).sum()) * 2 + abs(float(lhs))
        assert diff <= scale * 2 ** -100

    @pytest.mark.parametrize("seed", range(5))
    def test_odd_powers_integrate_to_exact_zero(self, seed):
        rng = np.random.default_rng(200 + seed)
        coeffs = np.zeros(40)
        coeffs[1::2] = rng.uniform(-10.0, 10.0, size=20)
        assert Polynomial(coeffs).integrate() == 0.0


class TestInvariants:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_polynomial_keeps_one_coefficient(self):
        assert Polynomial([0.0, 0.0, 0.0]).coeffs == (0.0,)
        assert Polynomial([0.0]).degree() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([])

    def test_immutable(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(AttributeError):
            p._coeffs = ()

    def test_equality_and_hash(self):
        assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0, 0.0])
        assert hash(Polynomial([1.0])) == hash(Polynomial([1.0, 0.0]))

    def test_accepts_dd_coefficients(self):
        p = Polynomial([DD(1.0, 1e-20)])
        assert p.coeffs == (1.0,)


class TestInterval:
    def test_default(self):
        iv = Interval()
        assert (iv.a, iv.b) == (-1.0, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, -2.0)

    def test_mid_and_rad_do_not_overflow(self):
        # from the halved endpoints: b - a overflows, b/2 - a/2 does not
        iv = Interval(-1e308, 1e308)
        assert (iv.mid, iv.rad) == (0.0, 1e308)

    @pytest.mark.parametrize("a,b", [
        (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="non-finite interval"):
            Interval(a, b)

    @pytest.mark.parametrize("a,b,shown", [
        (0, 10 ** 400, "1.00000e+400"),
        (-(10 ** 400), 0, "-1.00000e+400"),
        (Fraction(-(10 ** 400)), 0, "-1.00000e+400"),
        (0, Fraction(10 ** 401, 3), "3.33333e+400"),
    ], ids=["int-b", "int-a", "Fraction-a", "Fraction-b"])
    def test_rejects_exact_endpoint_beyond_double_range(self, a, b, shown):
        # float() raises OverflowError there, which is not a ValueError
        with pytest.raises(ValueError, match=rf"interval endpoint {re.escape(shown)} "
                                             "is outside the double range"):
            Interval(a, b)
