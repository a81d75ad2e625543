import copy
import math
import pickle
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import NodeSet, build_basis
from quadlsq.basis import _on_grid, _power_differences

from helpers import FAMILIES, MIN_N, family_cases, nodeset, ref_basis


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


#: Each value type: its arguments by position and by keyword, the repr of
#: the instance they build, the number of arguments without a default, and
#: the arguments of an instance that differs in one field
_VALUE_TYPES = {
    "Interval": (q.Interval, (0, 2), {"a": 0, "b": 2}, "Interval(a=0.0, b=2.0)", 0, (0, 3)),
    "NodeSet": (NodeSet, ((-1, 1), q.Interval(0, 2)),
                {"nodes": (-1, 1), "interval": q.Interval(0, 2)},
                "NodeSet(nodes=(-1.0, 1.0), interval=Interval(a=0.0, b=2.0))", 1, ((-1, 1),)),
    "FamilySpec": (q.FamilySpec, ("nc", 5), {"family": q.Family.NEWTON_COTES, "n": 5},
                   "FamilySpec(family=<Family.NEWTON_COTES: 'newton_cotes'>, n=5)", 2,
                   ("nc", 6)),
}


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_a_value_type_is_an_immutable_value(name):
    cls, args, kwargs, text, required, other = _VALUE_TYPES[name]
    x, y, z = cls(*args), cls(**kwargs), cls(*other)
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != z and z != x
    assert x.__eq__(args) is NotImplemented and x != args
    assert repr(x) == repr(y) == text
    for field in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, getattr(z, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y and repr(x) == text
    for k in range(required):
        with pytest.raises(TypeError):
            cls(*args[:k])
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])


def test_result_types_compare_by_identity():
    ns = NodeSet((-1.0, 0.0, 1.0))
    fs = q.build_system(ns)
    pairs = [(fs, q.build_system(ns)), (q.solve_rule(fs), q.solve_rule(fs)),
             (q.build_report(ns), q.build_report(ns)),
             (q.rational_pipeline(ns.nodes), q.rational_pipeline(ns.nodes))]
    for x, y in pairs:
        assert x == x and x != y and hash(x) != hash(y)
        field = type(x).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(y, field))
        with pytest.raises(AttributeError):
            delattr(x, field)


def _same(x, y):
    """True if x and y are of one type and equal, a record field by field
    and an array or a float bit for bit."""
    if type(x) is not type(y):
        return False
    if isinstance(x, q.basis._Record):
        return all(_same(getattr(x, f), getattr(y, f)) for f in type(x).__match_args__)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    if isinstance(x, float):
        return x.hex() == y.hex()
    return x == y


def _views(record):
    """The names of a record's derived values: its properties, cached or not."""
    return [name for klass in type(record).__mro__ for name, attr in vars(klass).items()
            if isinstance(attr, (property, cached_property))]


def _records():
    """One instance of each record type, every view of it read."""
    ns = NodeSet((-1.0, 0.0, 1.0))
    fs = q.build_system(ns)
    records = {"Interval": ns.interval, "NodeSet": ns, "FamilySpec": q.FamilySpec("gl", 17),
               "FundamentalSystem": fs, "RuleSolution": q.solve_rule(fs),
               "RuleReport": q.build_report(ns), "RationalRule": q.rational_pipeline(ns)}
    for x in records.values():
        for name in _views(x):
            getattr(x, name)
    return records


@pytest.mark.parametrize("name", list(_records()))
@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                     copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_a_record_pickles_and_copies(name, copy_of):
    # a copy is rebuilt from its fields alone; each view is built again on
    # first read, read-only (numpy drops the flag from a pickled array)
    x = _records()[name]
    y = copy_of(x)
    assert y is not x and type(y).__name__ == name and _same(x, y)
    assert tuple(vars(y)) == type(y).__match_args__
    for view in _views(x):
        got = getattr(y, view)
        assert _same(getattr(x, view), got), view
        assert not isinstance(got, np.ndarray) or not got.flags.writeable, view


@pytest.mark.parametrize("family,n", family_cases(2, 20))
def test_a_report_pickles_and_copies_every_field(family, n):
    rep = q.build_report(q.generate(q.FamilySpec(family, n)), family=family)
    assert tuple(vars(rep)) == type(rep).__match_args__  # flat: no nested mapping
    for y in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert _same(rep, y)



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

    @pytest.mark.parametrize("interval,name", [((0, 1), "tuple"), (None, "NoneType")])
    def test_an_interval_that_is_not_an_interval_is_a_value_error(self, interval, name):
        # before the check, the node set was built and build_report raised
        # a bare AttributeError on interval.mid
        with pytest.raises(ValueError, match=f"the interval must be an Interval, got {name}$"):
            NodeSet((0.0, 0.5, 1.0), interval)


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
        ns = nodeset(family, n)
        assert build_basis(ns) == ref_basis(ns.nodes)


#: (n, family) for n = 1, 2, 3, 5, 8, 12 where the family has n nodes, in
#: the order and with the ids of stacked n and family parametrizations
_VANISHING_CASES = [(n, fam) for n in (1, 2, 3, 5, 8, 12) for fam in FAMILIES if n >= MIN_N[fam]]


class TestVanishing:
    @pytest.mark.parametrize("n,family", _VANISHING_CASES)
    def test_phi_vanishes_at_leading_nodes(self, family, n):
        ns = nodeset(family, n)
        P = build_basis(ns)
        for j in range(1, n):
            for k in range(j):
                assert value(P[j], ns.nodes[k]) == 0

    @pytest.mark.parametrize("n,family", _VANISHING_CASES)
    def test_q_vanishes_at_all_nodes(self, family, n):
        ns = nodeset(family, n)
        P = build_basis(ns)
        for j in range(n, 2 * n + 1):
            for t in ns.nodes:
                assert value(P[j], t) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_diagonal_entries_nonzero(self, family, n):
        # phi_i(t_{i+1}) != 0 is the full-rank argument for the system
        ns = nodeset(family, n)
        P = build_basis(ns)
        for i in range(n - 1):
            assert value(P[i], ns.nodes[i + 1]) != 0
