"""The one reader of a sequence passed in, ``basis._vector``: a node set's
nodes, the exact oracle's nodes and (a, b) pair, and every vector passed in
with a rule are read by it, so each taker refuses the same inputs the same
way and reads the ones it accepts alike."""

import array
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import Interval, NodeSet, rational_pipeline

from helpers import solved

#: Inputs that iterate but are no ordered sequence of numbers, each of
#: length k (one row of k for the array), and the type the message names
_NOT_SEQUENCES = {
    "text": (lambda k: "0123456789"[:k], "str"),
    "bytes": (lambda k: bytes(range(k)), "bytes"),
    "dict": (lambda k: {float(i): 1.0 for i in range(k)}, "dict"),
    "set": (lambda k: {float(i) for i in range(k)}, "set"),
    "2-d array": (lambda k: np.arange(k, dtype=float)[None, :], r"shape \(1, \d\)"),
}

#: Every taker of a sequence, called on the bad sequence x of a solved
#: five-node rule, and the length x must have to get past a length check
_TAKERS = {
    "NodeSet": (lambda fs, sol, x: NodeSet(x), 5),
    "rational_pipeline(nodes)": (lambda fs, sol, x: rational_pipeline(x), 5),
    "rational_pipeline(interval)": (lambda fs, sol, x: rational_pipeline([0.25, 0.5], x), 2),
    "residual": (lambda fs, sol, x: q.residual(fs, x), 5),
    "residual_norms": (lambda fs, sol, x: q.residual_norms(x), 5),
    "epsilon_check": (lambda fs, sol, x: q.epsilon_check(fs, x), 5),
    "equioscillation_residual": (lambda fs, sol, x: q.equioscillation_residual(fs, x), 5),
    "degree_by_monomials": (lambda fs, sol, x: q.degree_by_monomials(fs.nodes, x), 5),
    "rule_angle(x, z*)": (lambda fs, sol, x: q.rule_angle(x, sol.z_star), 5),
    "rule_angle(omega, x)": (lambda fs, sol, x: q.rule_angle(sol.omega, x), 5),
    "norm_params(x, z*)": (lambda fs, sol, x: q.norm_params(x, sol.z_star), 5),
    "norm_params(omega, x)": (lambda fs, sol, x: q.norm_params(sol.omega, x), 5),
    "bounds_omega_gamma(x, z*)": (lambda fs, sol, x: q.bounds_omega_gamma(fs, x, sol.z_star), 5),
    "bounds_omega_gamma(omega, x)": (lambda fs, sol, x: q.bounds_omega_gamma(fs, sol.omega, x),
                                     5),
}


class TestRefusals:
    """Text, bytes, a mapping, a set and a 2-d array are a ``ValueError``
    that names what was expected, a record a ``TypeError``, for every taker."""

    @pytest.mark.parametrize("case", list(_NOT_SEQUENCES))
    @pytest.mark.parametrize("taker", list(_TAKERS))
    def test_not_a_sequence_of_numbers(self, taker, case):
        _, fs, sol = solved(q.Family.NEWTON_COTES, 5)
        call, k = _TAKERS[taker]
        make, got = _NOT_SEQUENCES[case]
        with pytest.raises(ValueError, match=f"^expected .*, got {got}$"):
            call(fs, sol, make(k))

    @pytest.mark.parametrize("taker", list(_TAKERS))
    def test_a_record(self, taker):
        _, fs, sol = solved(q.Family.NEWTON_COTES, 5)
        call, _ = _TAKERS[taker]
        with pytest.raises(TypeError, match="^expected .*, got a FundamentalSystem"):
            call(fs, sol, fs)

    @pytest.mark.parametrize("interval,got", [((0, 1, 2), "of length 2, got 3"),
                                              (5, r"of length 2, got shape \(\)"),
                                              ("ab", "of length 2, got str")],
                             ids=["three endpoints", "a scalar", "text"])
    def test_an_interval_that_is_not_a_pair(self, interval, got):
        # a TypeError from unpacking the first two, and "irrational nodes:
        # cannot parse 'a'" for text, before the interval was read as a vector
        with pytest.raises(ValueError,
                           match=re.escape("expected the interval (a, b) as a vector ") + got):
            rational_pipeline([0, 1], interval)


class TestBeyondTheDoubleRange:
    """An exact vector entry beyond the double range is the ``ValueError`` a
    node beyond it is, not the bare ``OverflowError`` of ``float``."""

    @pytest.mark.parametrize("call", [
        lambda: q.rule_angle([10 ** 400, 1], [1, 1]),
        lambda: q.residual_norms([10 ** 400]),
        lambda: q.norm_params([Fraction(10 ** 400), 1], [1, 1]),
        lambda: q.residual(solved(q.Family.NEWTON_COTES, 2)[1], [1.0, 10 ** 400]),
    ], ids=["rule_angle", "residual_norms", "norm_params", "residual"])
    def test_a_value_error(self, call):
        with pytest.raises(ValueError,
                           match=r"^vector entry 1\.00000e\+400 is outside the double range$"):
            call()


class TestEntriesThatAreNoNumbers:
    """An entry ``float`` refuses is its ``TypeError``, unless every entry
    is a row of one length: then the vector is a list of rows, the
    ``ValueError`` that names its shape."""

    @pytest.mark.parametrize("x", [[object(), 1.0, 2.0], [[1.0], [1.0, 2.0], [3.0]]],
                             ids=["an object", "ragged rows"])
    def test_a_type_error(self, x):
        fs = q.build_system(NodeSet((-1.0, 0.0, 1.0)))
        with pytest.raises(TypeError, match="not '(object|list)'$"):
            q.residual(fs, x)

    def test_rows_of_one_length_name_their_shape(self):
        fs = q.build_system(NodeSet((-1.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match=re.escape("got shape (3, 1)")):
            q.residual(fs, [[1.0], [2.0], [3.0]])


#: The ordered forms a sequence of numbers may take, built from a tuple
_FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda t: (v for v in t),
    "array": np.array,
    "array.array": lambda t: array.array("d", t),
}


@pytest.mark.parametrize("form", list(_FORMS))
def test_every_ordered_form_reads_alike(form):
    nodes = (-1.0, -0.25, 0.5, 1.0)
    assert NodeSet(_FORMS[form](nodes)) == NodeSet(nodes)
    rr = rational_pipeline(_FORMS[form](nodes), _FORMS[form]((-1.0, 1.0)))
    assert rr.weights == rational_pipeline(nodes).weights
    _, fs, sol = solved(q.Family.NEWTON_COTES, 4)
    omega = tuple(sol.omega.tolist())
    assert q.residual(fs, _FORMS[form](omega)).tobytes() == q.residual(fs, omega).tobytes()


_DOUBLES = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300))


@st.composite
def _node_sets(draw):
    """A NodeSet of one to five binary nodes on a random interval."""
    nodes = sorted(draw(st.lists(_DOUBLES, min_size=1, max_size=5, unique=True)))
    a, b = sorted(draw(st.lists(_DOUBLES, min_size=2, max_size=2, unique=True)))
    return NodeSet(nodes, Interval(a, b))


@settings(max_examples=60, deadline=None)
@given(ns=_node_sets())
def test_the_exact_oracle_reads_every_form_alike(ns):
    # a NodeSet, its nodes as a list with its Interval, and as an array with
    # the (a, b) pair are one rule
    rules = [rational_pipeline(ns),
             rational_pipeline(list(ns.nodes), ns.interval),
             rational_pipeline(np.array(ns.nodes), (ns.interval.a, ns.interval.b))]
    fields = (*q.RationalRule.__match_args__, "A", "c", "moments")
    want = [getattr(rules[0], f) for f in fields]
    for rr in rules[1:]:
        assert [getattr(rr, f) for f in fields] == want
