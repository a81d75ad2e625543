import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import NodeSet, build_basis
from quadlsq.basis import _on_grid, _power_differences

from helpers import FAMILIES, MIN_N, nodeset, ref_basis


def value(p, x):
    """p(x) by Horner's rule on Fractions: exact."""
    x, acc = Fraction(x), Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def times_linear(p, r):
    """The coefficients of p(x) (x - r), exactly."""
    return tuple(a - r * b for a, b in zip((0, *p), (*p, 0)))


#: Nodes near the default interval, off-centre, tiny or subnormal, and
#: anywhere in the double range, huge included
_NODE_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(1e6, 1e6 + 8.0),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: Any finite double, with subnormals, the extremes and signed zeros weighted up
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
)


class TestOnGrid:
    """X = D x on the least common denominator, exactly."""

    @staticmethod
    def _check(values, D, X):
        exact = [Fraction(v) for v in values]
        assert D == math.lcm(*(v.denominator for v in exact))
        assert [Fraction(x) for x in X] == [D * v for v in exact]
        assert all(type(x) is int for x in X)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_DOUBLES, max_size=8))
    def test_doubles_on_a_power_of_two(self, values):
        D, X = _on_grid(values)
        self._check(values, D, X)
        assert D & (D - 1) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(), st.fractions(), _DOUBLES), max_size=8))
    def test_ints_fractions_and_doubles(self, values):
        self._check(values, *_on_grid(values))


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(), hi=st.integers(), m=st.integers(0, 40))
def test_power_differences_are_hi_k_minus_lo_k(lo, hi, m):
    got = list(islice(_power_differences(lo, hi), m))
    assert got == [hi ** k - lo ** k for k in range(1, m + 1)]


def test_interval_is_exported_from_basis():
    # the interval and its check sit in basis, next to NodeSet and the node check
    assert q.Interval is q.basis.Interval
    assert q.Interval.__module__ == "quadlsq.basis"
    assert NodeSet((0.0,)).interval == q.basis.Interval()


class TestNodeSet:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError, match="unordered nodes"):
            NodeSet((0.0, -1.0, 1.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unordered nodes"):
            NodeSet((0.0, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NodeSet(())

    def test_count(self):
        assert NodeSet((-1.0, 0.0, 1.0)).n == 3

    @pytest.mark.parametrize("nodes", [
        (math.nan,), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan, 1.0),
    ])
    def test_rejects_non_finite(self, nodes):
        with pytest.raises(ValueError, match="non-finite node"):
            NodeSet(nodes)


    def test_exact_values_are_stored_as_doubles(self):
        ns = NodeSet((Fraction(-1), 0, Fraction(1, 2), np.float32(0.75)))
        assert ns.nodes == (-1.0, 0.0, 0.5, 0.75)
        assert all(type(t) is float for t in ns.nodes)

    @pytest.mark.parametrize("big", [Fraction(10 ** 400), 10 ** 400, Fraction(-(10 ** 401), 7)],
                             ids=["Fraction", "int", "negative"])
    def test_exact_value_beyond_double_range_is_a_value_error(self, big):
        # float() raises OverflowError there, which is neither a ValueError
        # nor a NumericalFailure
        with pytest.raises(ValueError, match=r"node -?1\.\d{5}e\+40[01] is outside the double range"):
            NodeSet((big,))
        with pytest.raises(ValueError, match=r"node -?1\.\d{5}e\+40[01] is outside the double range"):
            NodeSet((-math.inf, big, math.inf))

    def test_generator_beyond_double_range_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"node 1\.00000e\+400 is outside the double range"):
            NodeSet(t for t in (0, Fraction(10 ** 400), 1))


class TestBuildBasis:
    def test_simpson(self):
        P = build_basis(NodeSet((-1.0, 0.0, 1.0)))
        assert P[:3] == (
            (1,),
            (1, 1),          # x + 1
            (0, 1, 1),       # (x + 1) x
        )
        # q_3 = (x+1) x (x-1) = x^3 - x ; q_4 = q_3 (x+1) = x^4 + x^3 - x^2 - x
        assert P[3] == (0, -1, 0, 1)
        assert P[4] == (0, -1, -1, 1, 1)
        assert len(P) == 7  # phi_0 .. phi_2, q_3 .. q_6

    def test_coefficients_are_fractions(self):
        P = build_basis(NodeSet((-1.0, 0.25, 1.0)))
        assert all(type(c) is Fraction for p in P for c in p)

    def test_midpoint_cyclic_index(self):
        # n = 1: the cyclic residue always lands on the single node
        P = build_basis(NodeSet((0.0,)))
        assert P[0] == (1,)
        assert P[1] == (0, 1)       # x
        assert P[2] == (0, 0, 1)    # x^2

    def test_cc4_top_polynomials(self):
        P = build_basis(NodeSet((-1.0, -0.5, 0.5, 1.0)))
        # phi_3 = (x+1)(x+1/2)(x-1/2) = x^3 + x^2 - x/4 - 1/4
        assert P[3] == (Fraction(-1, 4), Fraction(-1, 4), 1, 1)
        # q_4 = phi_3 (x - 1) = (x^2-1)(x^2-1/4) = x^4 - 5/4 x^2 + 1/4,
        # with its zero coefficients exactly zero
        assert P[4] == (Fraction(1, 4), 0, Fraction(-5, 4), 0, 1)

    def test_degrees(self):
        P = build_basis(NodeSet(tuple(np.linspace(-1.0, 1.0, 6))))
        for j, p in enumerate(P):
            assert len(p) - 1 == j
            assert p[-1] == 1
        assert len(P) == 13

    def test_cyclic_extension_order(self):
        # n = 3: q_4 multiplies by (x - t_1), q_5 by (x - t_2), q_6 by (x - t_3)
        t = (-0.75, 0.25, 0.875)
        P = build_basis(NodeSet(t))
        assert P[4] == times_linear(P[3], Fraction(t[0]))
        assert P[5] == times_linear(P[4], Fraction(t[1]))
        assert P[6] == times_linear(P[5], Fraction(t[2]))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_NODE_VALUES, min_size=1, max_size=6, unique=True))
    def test_equals_the_exact_product(self, nodes):
        nodes = sorted(nodes)
        assert build_basis(NodeSet(nodes)) == ref_basis(nodes)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 17])
    def test_families_equal_the_exact_product(self, family, n):
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        assert build_basis(ns) == ref_basis(ns.nodes)


class TestVanishing:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_phi_vanishes_at_leading_nodes(self, family, n):
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        P = build_basis(ns)
        for j in range(1, n):
            for k in range(j):
                assert value(P[j], ns.nodes[k]) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_q_vanishes_at_all_nodes(self, family, n):
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        P = build_basis(ns)
        for j in range(n, 2 * n + 1):
            for t in ns.nodes:
                assert value(P[j], t) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_diagonal_entries_nonzero(self, family, n):
        # phi_i(t_{i+1}) != 0 is the full-rank argument for the system
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        P = build_basis(ns)
        for i in range(n - 1):
            assert value(P[i], ns.nodes[i + 1]) != 0
