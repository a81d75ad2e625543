import math
from fractions import Fraction

import numpy as np
import pytest

from quadlsq import NodeSet, build_basis

from helpers import FAMILIES, MIN_N, nodeset

EPS = 2.0 ** -52


def horner_bound(p, x):
    """Magnitude of the largest intermediate of a Horner evaluation."""
    return sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))


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
        cb = build_basis(NodeSet((-1.0, 0.0, 1.0)))
        assert [p.coeffs for p in cb.phis] == [
            (1.0,),
            (1.0, 1.0),          # x + 1
            (0.0, 1.0, 1.0),     # (x + 1) x
        ]
        # q_3 = (x+1) x (x-1) = x^3 - x ; q_4 = q_3 (x+1) = x^4 + x^3 - x^2 - x
        assert cb.q(3).coeffs == (0.0, -1.0, 0.0, 1.0)
        assert cb.q(4).coeffs == (0.0, -1.0, -1.0, 1.0, 1.0)
        assert len(cb.qs) == 4  # q_3 .. q_6

    def test_midpoint_cyclic_index(self):
        # n = 1: the cyclic residue always lands on the single node
        cb = build_basis(NodeSet((0.0,)))
        assert [p.coeffs for p in cb.phis] == [(1.0,)]
        assert cb.q(1).coeffs == (0.0, 1.0)       # x
        assert cb.q(2).coeffs == (0.0, 0.0, 1.0)  # x^2

    def test_cc4_top_polynomials(self):
        cb = build_basis(NodeSet((-1.0, -0.5, 0.5, 1.0)))
        # phi_3 = (x+1)(x+1/2)(x-1/2) = x^3 + x^2 - x/4 - 1/4
        assert cb.phis[3].coeffs == (-0.25, -0.25, 1.0, 1.0)
        # q_4 = phi_3 (x - 1) = (x^2-1)(x^2-1/4) = x^4 - 5/4 x^2 + 1/4
        assert cb.q(4).coeffs == (0.25, 0.0, -1.25, 0.0, 1.0)

    def test_degrees(self):
        cb = build_basis(NodeSet(tuple(np.linspace(-1.0, 1.0, 6))))
        for j, p in enumerate(cb.phis):
            assert p.degree() == j
        for j in range(6, 13):
            assert cb.q(j).degree() == j

    def test_cyclic_extension_order(self):
        # n = 3: q_4 multiplies by (x - t_1), q_5 by (x - t_2), q_6 by (x - t_3)
        t = (-0.75, 0.25, 0.875)
        cb = build_basis(NodeSet(t))
        assert cb.q(4) == cb.q(3).mul_linear(t[0])
        assert cb.q(5) == cb.q(4).mul_linear(t[1])
        assert cb.q(6) == cb.q(5).mul_linear(t[2])


class TestVanishing:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_phi_vanishes_at_leading_nodes(self, family, n):
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        cb = build_basis(ns)
        for j in range(1, n):
            for k in range(j):
                t = ns.nodes[k]
                assert abs(cb.phis[j].eval(t)) <= 16 * EPS * horner_bound(cb.phis[j], t)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_q_vanishes_at_all_nodes(self, family, n):
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        cb = build_basis(ns)
        for j in range(n, 2 * n + 1):
            for t in ns.nodes:
                assert abs(cb.q(j).eval(t)) <= 16 * EPS * horner_bound(cb.q(j), t)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_diagonal_entries_nonzero(self, family, n):
        # phi_i(t_{i+1}) != 0 is the full-rank argument for the system
        if n < MIN_N[family]:
            pytest.skip("family needs more nodes")
        ns = nodeset(family, n)
        cb = build_basis(ns)
        for i in range(n - 1):
            assert cb.phis[i].eval(ns.nodes[i + 1]) != 0.0
