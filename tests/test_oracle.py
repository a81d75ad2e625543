import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import (
    NodeSet,
    SingularSystemError,
    build_system,
    degree_by_monomials,
    direct_sis4_minimax,
    lsq_normal_equations,
    oracle,
    rational_pipeline,
    solve_rule,
)
from quadlsq.oracle import _solve_dense

from helpers import (
    asymmetric_rational_nodes,
    bits,
    family_cases,
    lsq_error_bound,
    moments_dd,
    nodeset,
    perfbench_reference,
    ref_lsq_normal_equations,
    ref_rational_pipeline,
    solved,
)

SIMPSON = NodeSet((-1.0, 0.0, 1.0))


@st.composite
def _binary_rules(draw):
    """n = 2..40 doubles on a random interval, node k within 0.4 of a cell
    width of the centre of cell k of n equal cells."""
    a = draw(st.floats(-100.0, 100.0))
    b = a + draw(st.floats(2.0 ** -10, 200.0))
    n = draw(st.integers(2, 40))
    jitter = draw(st.lists(st.integers(-400, 400), min_size=n, max_size=n))
    nodes = sorted({a + (b - a) * ((k + 0.5 + j / 1000) / n) for k, j in enumerate(jitter)})
    return NodeSet(tuple(nodes), q.Interval(a, b))


def _outcome(solve, fs):
    """The bits of the weights, or the message of a SingularSystemError."""
    try:
        return bits(solve(fs))
    except SingularSystemError as exc:
        return str(exc)


class TestNormalEquations:
    def test_simpson_normal_system(self):
        fs = build_system(SIMPSON)
        np.testing.assert_allclose(
            fs.F.T @ fs.F, [[1, 1, 1], [1, 2, 3], [1, 3, 9]], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            fs.F.T @ fs.c_tilde, [2.0, 4.0, 22.0 / 3.0], rtol=1e-15
        )
        np.testing.assert_allclose(
            lsq_normal_equations(fs), [1 / 3, 4 / 3, 1 / 3], rtol=1e-13
        )

    def test_midpoint(self):
        fs = build_system(NodeSet((0.0,)))
        np.testing.assert_allclose(lsq_normal_equations(fs), [2.0], rtol=1e-15)

    def test_cc4_matches_triangular_route(self):
        fs = build_system(NodeSet((-1.0, -0.5, 0.5, 1.0)))
        np.testing.assert_allclose(
            lsq_normal_equations(fs), solve_rule(fs).omega, rtol=1e-12
        )

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_agreement(self, family, n):
        # loose tolerance: the normal equations square the conditioning
        _, fs, sol = solved(family, n)
        y = lsq_normal_equations(fs)
        assert np.max(np.abs(y - sol.omega)) <= 1e-8 * max(1.0, np.max(np.abs(sol.omega)))

    def test_singular_pivot_detected(self):
        with pytest.raises(SingularSystemError, match="numerically singular"):
            _solve_dense([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("family,n", [(q.Family.NEWTON_COTES, 40),
                                          (q.Family.CLENSHAW_CURTIS, 33)])
    def test_declines_beyond_its_range(self, family, n):
        # cond_inf(A)^2 u_DD is 6.6e7 and 26 here: a Gram matrix that
        # double-double cannot tell from a singular one, where a double LU
        # with refinement returned relative errors of 1.5 and 3.9e8
        fs = build_system(nodeset(family, n))
        with pytest.raises(SingularSystemError, match="outside the normal equations' range"):
            lsq_normal_equations(fs)

    def test_nodes_the_row_scale_merges_are_declined(self):
        # on (-4, 4) the guard reads the nodes 2^-2 t, and 5e-324 and 1e-323
        # both round to 0 there: a zero node difference is an infinite term
        # of ||(SA)^-1||_inf, not a ZeroDivisionError
        fs = build_system(NodeSet((5e-324, 1e-323, 1.0), q.Interval(-4.0, 4.0)), eps_deg=0.0)
        with pytest.raises(SingularSystemError, match=r"cond_inf\(SA\) = inf"):
            lsq_normal_equations(fs)

    def test_gram_matrix_beyond_the_double_range_is_declined(self):
        # 32 nodes 2^-33 apart near 100 on an interval of half-length about
        # 2^-28: the row scale makes SA's rows of one order, so the cond
        # guard passes, and then [G | b] overflows
        h = 2.0 ** -33
        ns = NodeSet(tuple(100.0 + (2 * k - 31) * h for k in range(32)),
                     q.Interval(-31 * h, 31 * h))
        fs = build_system(ns)
        want = "outside the normal equations' range: Gram matrix not finite"
        assert _outcome(lsq_normal_equations, fs) == want
        assert _outcome(ref_lsq_normal_equations, fs) == want

    @pytest.mark.parametrize("family,n,b", [(q.Family.NEWTON_COTES, 9, 1e-5),
                                            (q.Family.NEWTON_COTES, 17, 1e-5),
                                            (q.Family.CLENSHAW_CURTIS, 12, 1e-3)])
    def test_short_interval_is_in_range(self, family, n, b):
        # cond_inf(A) is 2.6e45, 1.9e91 and 2.3e39 on the unscaled rows;
        # row i scaled by 2^(-e i), 2^e >= (b - a)/2, puts it in range
        ns = q.generate(q.FamilySpec(family, n), q.Interval(0.0, b))
        fs = build_system(ns, eps_deg=0)
        y = lsq_normal_equations(fs)
        w = rational_pipeline(ns).weights
        err = max(abs(Fraction(float(v)) - t) for v, t in zip(y, w))
        assert err <= lsq_error_bound(fs, w)
        assert err <= 1e-15 * max(map(abs, w))

    def test_custom_pool_matches_cached_weights(self):
        # every set of the benchmark's pool, n = 3..24 on (0, 2), within
        # 1e-8 of the cached exact weights, relative to the largest
        ref, cached = _benchmark_reference()
        for key, nodes in ref.custom_pool().items():
            want = np.array(cached[key]["weights"])
            y = lsq_normal_equations(build_system(ref.custom_nodeset(q, nodes)))
            assert np.max(np.abs(y - want)) <= 1e-8 * np.max(np.abs(want)), key

    @pytest.mark.parametrize("n", [1, 2, oracle._SCALAR_ROWS, oracle._SCALAR_ROWS + 1, 24])
    def test_elimination_bit_identical_on_pool_sets(self, n):
        # rows beyond the last _SCALAR_ROWS take array steps: none at n = T,
        # one at T + 1; the pool's generator makes sets at n = 1 and 2
        ref, _ = _benchmark_reference()
        sets = [nodes for key, nodes in ref.custom_pool().items()
                if key.startswith(f"custom/{n}/")]
        sets = sets or [ref.custom_nodes(random.Random(i), n, 0, 2) for i in range(8)]
        for nodes in sets:
            fs = build_system(ref.custom_nodeset(q, nodes))
            assert bits(lsq_normal_equations(fs)) == bits(ref_lsq_normal_equations(fs)), nodes

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_every_split_is_bit_identical(self, monkeypatch, rows):
        # array steps down to the last row, or to the last five, give the
        # frozen loop's bits as well
        monkeypatch.setattr(oracle, "_SCALAR_ROWS", rows)
        ref, _ = _benchmark_reference()
        for key, nodes in ref.custom_pool().items():
            if key.endswith("/0"):
                fs = build_system(ref.custom_nodeset(q, nodes))
                assert bits(lsq_normal_equations(fs)) == bits(ref_lsq_normal_equations(fs)), key

    @settings(max_examples=60, deadline=None)
    @given(ns=_binary_rules())
    def test_bit_identical_or_declined(self, ns):
        # every set the oracle accepts, to n = 30 or so here, gives the
        # frozen loop's bits, and every set it refuses the same
        # SingularSystemError
        fs = build_system(ns, eps_deg=0.0)
        assert _outcome(lsq_normal_equations, fs) == _outcome(ref_lsq_normal_equations, fs)

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(st.fractions(-12, 12, max_denominator=1000), min_size=1, max_size=10,
                       unique=True),
        a=st.fractions(-8, 8, max_denominator=60),
        length=st.fractions(Fraction(1, 8), 6, max_denominator=60),
    )
    def test_declines_or_meets_its_bound(self, nodes, a, length):
        ns = NodeSet(tuple(sorted(float(t) for t in nodes)),
                     q.Interval(float(a), float(a + length)))
        fs = build_system(ns, eps_deg=0.0)
        try:
            y = lsq_normal_equations(fs)
        except SingularSystemError:
            return
        w = rational_pipeline(ns).weights
        err = max(abs(Fraction(float(v)) - t) for v, t in zip(y, w))
        assert err <= lsq_error_bound(fs, w)


class TestDegreeByMonomials:
    def test_simpson(self):
        fs = build_system(SIMPSON)
        assert degree_by_monomials(SIMPSON, solve_rule(fs).omega) == 3

    def test_gl2(self):
        ns, fs, sol = solved(q.Family.GAUSS_LEGENDRE, 2)
        assert degree_by_monomials(ns, sol.omega) == 3

    def test_midpoint(self):
        ns = NodeSet((0.0,))
        assert degree_by_monomials(ns, [2.0]) == 1

    @pytest.mark.parametrize("k", [3, 1, 0, 6])
    def test_weights_of_another_length_rejected(self, k):
        # a length mismatch is an input error, not a mismatch at degree -1
        ns, _, sol = solved(q.Family.NEWTON_COTES, 5)
        w = np.resize(sol.omega, k)
        with pytest.raises(ValueError, match=f"expected a vector of length 5, got {k}"):
            degree_by_monomials(ns, w)

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_matches_moment_detection(self, family, n):
        ns, fs, sol = solved(family, n)
        assert degree_by_monomials(ns, sol.omega) == fs.degree

    def test_zero_threshold_is_valid(self):
        # the midpoint rule integrates 1 and x exactly, at the default threshold
        assert degree_by_monomials(NodeSet((0.0,)), [2.0]) == 1

    def test_wide_interval_has_no_moment_to_overflow(self):
        # the moment of x^2 on (0, 1e150) is 1e450 / 3, but the rule is
        # judged on (-1, 1): nodes -1 and 1, weights 1 and 1
        ns = NodeSet((0.0, 1e150), q.Interval(0.0, 1e150))
        assert degree_by_monomials(ns, [5e149, 5e149]) == 1

    @pytest.mark.parametrize("family,n", [(q.Family.GAUSS_LEGENDRE, 21),
                                          (q.Family.CLENSHAW_CURTIS, 61)])
    def test_impossible_degree_2n_is_typed(self, family, n):
        # the exact weights' genuine error at x^2n is under the threshold
        ns = nodeset(family, n)
        w = [float(v) for v in rational_pipeline(ns).weights]
        with pytest.raises(q.DegreeOverflowError,
                           match=rf"y\^0\.\.y\^{2 * n} all match .* threshold 2e-12,"):
            degree_by_monomials(ns, w)

    def test_zero_half_length_is_typed(self):
        # rad = 0.5 * 5e-324 - 0.0 rounds to 0: a ZeroDivisionError unchecked
        ns = NodeSet((0.0,), q.Interval(0.0, 5e-324))
        with pytest.raises(q.NumericalFailure, match="half-length .* rounds to 0"):
            degree_by_monomials(ns, [5e-324])

    @pytest.mark.parametrize("a,b", [(0.0, 1e-5), (0.0, 1e-3), (0.0, 0.1), (2.0, 4.0),
                                     (0.0, 100.0), (-1e4, 1e4)])
    def test_same_degree_on_every_interval(self, a, b):
        # exact weights of the rounded nodes mid + rad t: exactness does not
        # depend on the interval, and neither does the check
        got, want = {}, {}
        for family, n in family_cases(2, 20):
            ns = q.generate(q.FamilySpec(family, n), q.Interval(a, b))
            got[family, n] = degree_by_monomials(ns, [float(v) for v in
                                                      rational_pipeline(ns).weights])
            want[family, n] = _degree_on_reference_interval(family, n)
        assert got == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nodes,degree", [
        ((-1e200, 1e200), 1),        # the x^2 terms are both inf
        ((-1e120, 0.0, 1e120), 2),   # the x^3 terms are -inf and inf
    ])
    def test_weighted_sum_beyond_double_range_is_a_mismatch(self, nodes, degree):
        ns = NodeSet(nodes)
        w = [float(v) for v in rational_pipeline(ns).weights]
        assert degree_by_monomials(ns, w) == degree


@lru_cache(maxsize=None)
def _degree_on_reference_interval(family, n):
    """The monomial check's degree of a family rule on (-1, 1), exact weights."""
    ns = nodeset(family, n)
    return degree_by_monomials(ns, [float(v) for v in rational_pipeline(ns).weights])


class TestRationalPipeline:
    def test_simpson_exact(self):
        rr = rational_pipeline([-1, 0, 1])
        assert rr.weights == (Fraction(1, 3), Fraction(4, 3), Fraction(1, 3))
        assert rr.mu_Q == Fraction(-4, 15)
        assert rr.degree == 3

    def test_cc4_exact_system(self):
        # the printed matrix has 1/2 at entry (2,3); phi_1(1/2) = 3/2 and
        # the printed weights require 3/2, so the consistent value is tested
        rr = rational_pipeline(["-1", "-1/2", "1/2", "1"])
        assert rr.A == (
            (1, 1, 1, 1),
            (0, Fraction(1, 2), Fraction(3, 2), 2),
            (0, 0, Fraction(3, 2), 3),
            (0, 0, 0, Fraction(3, 2)),
        )
        assert rr.c == (2, 2, Fraction(5, 3), Fraction(1, 6))
        assert rr.weights == (
            Fraction(1, 9), Fraction(8, 9), Fraction(8, 9), Fraction(1, 9),
        )
        assert rr.mu_Q == Fraction(1, 15)
        assert rr.degree == 3

    def test_node_spec_forms(self):
        forms = rational_pipeline([(-1, 1), "-0.5", Fraction(1, 2), 1])
        assert forms.nodes == (-1, Fraction(-1, 2), Fraction(1, 2), 1)

    def test_nc9_has_negative_weight(self):
        nodes = [Fraction(k - 5, 4) for k in range(1, 10)]
        rr = rational_pipeline(nodes)
        assert min(rr.weights) < 0

    def test_nc17_exact_principal_moment(self):
        # frozen from an independent exact computation; its ratio to 18!
        # reproduces the published error coefficient -1.76e-20
        nodes = [Fraction(k - 9, 8) for k in range(1, 18)]
        rr = rational_pipeline(nodes)
        assert rr.degree == 17
        assert rr.mu_Q == Fraction(-193475323, 1713691951104)
        alpha = rr.mu_Q / math.factorial(18)
        assert float(alpha) == pytest.approx(-1.76e-20, rel=2e-2)

    @pytest.mark.parametrize("n", range(2, 18))
    def test_floating_pipeline_agreement_nc(self, n):
        # the float nodes are fed to the exact pipeline as the binary
        # rationals they are, so both sides analyze the same rule
        ns = nodeset(q.Family.NEWTON_COTES, n)
        rr = rational_pipeline(ns)
        _, fs, sol = solved(q.Family.NEWTON_COTES, n)
        assert rr.degree == fs.degree
        assert fs.mu_Q == pytest.approx(float(rr.mu_Q), rel=1e-13)
        for got, want in zip(sol.omega, rr.weights):
            assert got == pytest.approx(float(want), rel=1e-13)
        mom = moments_dd(ns)
        assert bits(fs.leading_dd) == bits(mom[:fs.degree + 2])
        for (h, l), want in zip(mom, rr.moments):
            assert h + l == pytest.approx(float(want), rel=1e-13, abs=1e-25)

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="unordered nodes"):
            rational_pipeline([1, 0])

    def test_unsupported_spec_rejected(self):
        with pytest.raises(ValueError, match="irrational nodes"):
            rational_pipeline([object(), 1])

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError, match="irrational nodes"):
            rational_pipeline(["pi", "1"])

    @pytest.mark.parametrize("interval,message", [
        ((object(), 1), "unsupported spec <object"),
        (("x", 1), "cannot parse 'x'"),
        ((0, "1/0"), "cannot parse '1/0'"),
    ], ids=["an object", "text", "a zero denominator"])
    def test_an_endpoint_it_cannot_read_is_named(self, interval, message):
        # these read "irrational nodes: ...", naming nodes for an endpoint
        with pytest.raises(ValueError, match="^" + re.escape(f"interval endpoint: {message}")):
            rational_pipeline([0.25, 0.5], interval)

    @pytest.mark.parametrize("node,message", [
        (object(), "unsupported node spec <object"),
        ("x", "cannot parse 'x'"),
        ("1/0", "cannot parse '1/0'"),
    ], ids=["an object", "text", "a zero denominator"])
    def test_a_node_it_cannot_read_keeps_its_wording(self, node, message):
        with pytest.raises(ValueError, match="^" + re.escape(f"irrational nodes: {message}")):
            rational_pipeline([node, 1])

    @pytest.mark.parametrize("pair", [(1, 0), (1.5, 2), (1, 2.0), (Fraction(1, 2), 1), (1, 2, 3)])
    def test_malformed_pair_rejected(self, pair):
        # a zero denominator used to escape as ZeroDivisionError, a float
        # entry as TypeError
        with pytest.raises(ValueError, match="irrational nodes"):
            rational_pipeline([pair, (5, 1)])

    @pytest.mark.parametrize("nodes,exact", [
        ([np.int32(0), 1], [0, 1]),
        ([np.float32(0), np.float32(0.5)], [0, Fraction(1, 2)]),
        ([np.int64(-1), np.uint8(0), np.float16(1)], [-1, 0, 1]),
        ([np.float32(0.1), (np.int64(1), np.int64(2))], [Fraction(float(np.float32(0.1))), Fraction(1, 2)]),
    ])
    def test_numpy_scalars_are_exact(self, nodes, exact):
        got, want = rational_pipeline(nodes, (np.int64(-1), np.float32(1))), rational_pipeline(exact)
        assert got.interval == want.interval
        for field in ("nodes", "mu_Q", "degree", "weights"):
            assert getattr(got, field) == getattr(want, field), field
        assert all(type(t.numerator) is int and type(t.denominator) is int for t in got.nodes)

    def test_exact_nodes_of_any_size(self):
        # 1/2^64 needs a denominator beyond 2^63: an exact node of any size
        # is a rational, as a double of any exponent is
        for nodes in ([Fraction(1, 2 ** 64), Fraction(1, 2)],
                      [f"1/{2 ** 64}", "1/2"],
                      [(1, 2 ** 64), (1, 2)]):
            _assert_same_rule(nodes)

    def test_empty_rejected(self):
        assert _message(rational_pipeline, []) == _message(NodeSet, ())

    def test_degenerate_interval_rejected(self):
        assert _message(rational_pipeline, [0, 1], (1.0, 1.0)) == _message(q.Interval, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"invalid interval: need a < b, got \(1, 1\)"):
            rational_pipeline([0, 1], (1, 1))

    def test_reversed_interval_rejected(self):
        assert _message(rational_pipeline, [0, 1], (2.0, -2.0)) == _message(q.Interval, 2.0, -2.0)
        with pytest.raises(ValueError, match=r"invalid interval: need a < b, got \(2, -2\)"):
            rational_pipeline([0, 1], (2, -2))

    def test_non_finite_rejected(self):
        assert _message(rational_pipeline, [0.0, math.inf]) == _message(NodeSet, (0.0, math.inf))
        inf32 = np.float32(math.inf)
        assert _message(rational_pipeline, [0, inf32]) == _message(NodeSet, (0.0, inf32))
        assert (_message(rational_pipeline, [0, 1], (0.0, math.nan))
                == _message(q.Interval, 0.0, math.nan))

    @pytest.mark.parametrize("interval", [
        (0, 10 ** 400), (Fraction(-(10 ** 400)), 0),
        (-(10 ** 400), Fraction(10 ** 400, 3)), (Fraction(-1, 10 ** 400), Fraction(1, 10 ** 400)),
    ], ids=["int-b", "Fraction-a", "both", "tiny"])
    def test_endpoints_beyond_double_range_are_taken_exactly(self, interval):
        # Interval rejects these; the exact oracle integrates over them as given
        nodes = [Fraction(-1), Fraction(0), Fraction(1)]
        rr = rational_pipeline(nodes, interval)
        a, b = map(Fraction, interval)
        assert rr.interval == (a, b)
        assert sum(rr.weights) == b - a
        assert rr.moments[0] == b - a
        assert rr.mu_Q == rr.moments[rr.degree + 1]

    def test_small_double_nodes_are_binary_rationals(self):
        # 1e-4 is m / 2^66 exactly: a double, whatever its exponent, is a
        # valid node, as it is for the float pipeline
        rr = rational_pipeline(NodeSet((-1.0, 1e-4, 1.0)))
        assert rr.nodes[1] == Fraction(1e-4)
        assert sum(rr.weights) == 2

    def test_general_interval(self):
        rr = rational_pipeline([0, 1, 2], interval=(0, 2))
        assert sum(rr.weights) == 2
        assert rr.weights == (Fraction(1, 3), Fraction(4, 3), Fraction(1, 3))

    def test_a_node_set_brings_its_own_interval(self):
        ns = NodeSet((0.0, 1.0, 2.0), q.Interval(0.0, 2.0))
        assert rational_pipeline(ns).interval == (0, 2)
        # the same exact pair, in any form, is accepted
        assert rational_pipeline(ns, ("0", (2, 1))).weights == rational_pipeline(ns).weights
        with pytest.raises(ValueError, match="differs from the node set's"):
            rational_pipeline(SIMPSON, (0, 2))

    def test_an_interval_is_a_pair(self):
        # the package's own Interval stands wherever an (a, b) pair does
        rr = rational_pipeline([0, 1, 2], q.Interval(0, 2))
        assert rr.interval == (0, 2)
        assert rr.weights == rational_pipeline([0, 1, 2], (0, 2)).weights
        ns = NodeSet((0.0, 1.0, 2.0), q.Interval(0.0, 2.0))
        assert rational_pipeline(ns, q.Interval(0, 2)).weights == rational_pipeline(ns).weights
        with pytest.raises(ValueError, match="differs from the node set's"):
            rational_pipeline(SIMPSON, q.Interval(0, 2))


def _message(fn, *args):
    """The message of the ValueError that ``fn(*args)`` raises."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def _assert_same_rule(ns_or_nodes, *interval):
    got = rational_pipeline(ns_or_nodes, *interval)
    want = ref_rational_pipeline(ns_or_nodes, *interval)
    for field in ("nodes", "A", "c", "moments", "mu_Q", "degree", "weights"):
        assert getattr(got, field) == getattr(want, field), field
    entries = (*got.nodes, *got.moments, *got.weights, *(v for row in got.A for v in row))
    assert all(type(v) is Fraction for v in entries)


def _written(t):
    """The exact forms of the rational t that ``rational_pipeline`` takes."""
    forms = [t, f"{t.numerator}/{t.denominator}", (t.numerator, t.denominator),
             (np.int64(t.numerator), np.int32(t.denominator))]
    if t.denominator == 1:
        forms.append(np.int16(t.numerator))
    return forms


_INTERVALS = (None, q.Interval(2.0, 4.0))

_NON_DYADIC = st.fractions(-12, 12, max_denominator=1000).filter(
    lambda f: f.denominator & (f.denominator - 1))


class TestIntegerRoute:
    """``rational_pipeline`` on scaled integers against the frozen Fraction
    route of ``helpers.ref_rational_pipeline``: the same Fractions."""

    @pytest.mark.parametrize("interval", _INTERVALS, ids=["(-1,1)", "(2,4)"])
    @pytest.mark.parametrize("family,n", family_cases(1, 24))
    def test_families_match_frozen_route(self, family, n, interval):
        _assert_same_rule(q.generate(q.FamilySpec(family, n), interval))

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_asymmetric_rational_nodes_match_frozen_route(self, seed):
        nodes = asymmetric_rational_nodes(seed)
        _assert_same_rule(nodes, (0, 2))
        _assert_same_rule(NodeSet(tuple(float(t) for t in nodes), q.Interval(0.0, 2.0)))

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(_NON_DYADIC, min_size=1, max_size=10, unique=True),
        a=st.fractions(-8, 8, max_denominator=60),
        length=st.fractions(Fraction(1, 8), 6, max_denominator=60),
    )
    def test_random_rationals_match_frozen_route(self, nodes, a, length):
        # intervals anywhere in (-8, 14): negative, shifted or around 0
        _assert_same_rule(sorted(nodes), (a, a + length))

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(st.one_of(st.integers(-12, 12).map(Fraction),
                                 st.fractions(-12, 12, max_denominator=50)),
                       min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    def test_exact_node_forms_give_the_same_rule(self, nodes, data):
        # Fraction, "p/q", (p, q) and, for an integral node, numpy ints: the
        # same exact value, so the same rule
        nodes = sorted(nodes)
        forms = [[_written(t)[k] for t in nodes] for k in range(4)]
        forms.append([data.draw(st.sampled_from(_written(t))) for t in nodes])
        if all(t.denominator == 1 for t in nodes):
            forms.append([np.int32(t.numerator) for t in nodes])
        want = rational_pipeline(nodes)
        for form in forms:
            got = rational_pipeline(form)
            assert (got.degree, got.mu_Q, got.weights) == (want.degree, want.mu_Q, want.weights)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_weights_solve_the_system_exactly(self, n):
        # Lagrange weights, unlike a backward substitution, are not A w = c
        # by construction; the exact Newton-Cotes nodes -1 + 2k/(n-1)
        rr = rational_pipeline([Fraction(2 * k, n - 1) - 1 for k in range(n)])
        for i, (row, c) in enumerate(zip(rr.A, rr.c)):
            assert sum(a * w for a, w in zip(row[i:], rr.weights[i:])) == c


_LAZY = ("A", "c", "moments")


class TestLazyFields:
    """``A``, ``c`` and ``moments`` are built on first read, in any order,
    equal the frozen route's and are cached; the rule returns without them."""

    @pytest.mark.parametrize("order", (_LAZY, _LAZY[::-1]), ids=["A-first", "moments-first"])
    @pytest.mark.parametrize("args", [
        ([-1, 0, 1],),
        (asymmetric_rational_nodes(1, 6), (0, 2)),
        (nodeset(q.Family.NEWTON_COTES, 9),),
        (nodeset(q.Family.GAUSS_LEGENDRE, 7),),
    ], ids=["simpson", "rational-6", "nc-9", "gl-7"])
    def test_built_on_first_read_and_cached(self, args, order):
        rr = rational_pipeline(*args)
        assert not set(_LAZY) & vars(rr).keys()
        want = ref_rational_pipeline(*args)
        for field in order:
            got = getattr(rr, field)
            assert got == getattr(want, field), field
            assert getattr(rr, field) is got, field
        assert rr.c == rr.moments[:len(rr.nodes)]
        assert rr.mu_Q == rr.moments[rr.degree + 1]

    @pytest.mark.parametrize("order", (_LAZY, _LAZY[::-1]), ids=["A-first", "moments-first"])
    def test_fields_share_one_basis_pass(self, order, monkeypatch):
        # the call builds the basis only as far as mu_Q; reading every lazy
        # field afterwards scales the nodes and builds the full basis once
        calls = {"_basis": 0, "_scaled": 0}
        for name in calls:
            def counted(*args, _fn=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(oracle, name, counted)
        rr = rational_pipeline(asymmetric_rational_nodes(2, 8), (0, 2))
        assert calls == {"_basis": 1, "_scaled": 1}
        for field in order:
            getattr(rr, field)
        assert calls == {"_basis": 2, "_scaled": 2}
        assert rr.moments == ref_rational_pipeline(asymmetric_rational_nodes(2, 8), (0, 2)).moments


@lru_cache(maxsize=None)
def _benchmark_reference():
    """The benchmark's ``reference`` module and the entries it cached in
    ``reference.json``; neither is written."""
    module = perfbench_reference()
    return module, json.loads(module.CACHE.read_text(encoding="utf-8"))["rules"]


class TestCachedBenchmarkReferences:
    """``rational_pipeline`` reproduces the benchmark's cached exact
    references: an entry holds the hash of the nodes, the degree, and mu_Q,
    the weights and their 1-norm each rounded once.  Only the entries whose
    nodes do not depend on libm: Newton-Cotes and the custom pool (decimal
    rationals rounded once)."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_newton_cotes(self, n):
        ref, cached = _benchmark_reference()
        assert ref.family_reference(q, "newton_cotes", n) == cached[f"newton_cotes/{n}"]

    def test_custom_pool(self):
        ref, cached = _benchmark_reference()
        pool = ref.custom_pool()
        assert len(pool) == 176
        for key, nodes in pool.items():
            assert ref.exact_reference(q, ref.custom_nodeset(q, nodes)) == cached[key], key


def _relative_max_error(x, ref):
    """max |x_i - ref_i| / max |ref_i|, as custom-verify measures the weights."""
    return max(abs(a - b) for a, b in zip(x, ref)) / max(map(abs, ref))


def test_four_routes_agree_on_custom_pool():
    # custom-verify's checks, on all 176 sets it draws from: the exact route
    # to the cached bit, the normal equations and the direct minimax within
    # its 1e-8, and the monomial check on the pipeline's omega at the exact
    # degree
    ref, cached = _benchmark_reference()
    disagree = []
    for key, nodes in ref.custom_pool().items():
        want, ns = cached[key], ref.custom_nodeset(q, nodes)
        fs = build_system(ns)
        sol = solve_rule(fs)
        rr = rational_pipeline(ns)
        z, eps = direct_sis4_minimax(fs)
        routes = {
            "rational_pipeline": (rr.degree, float(rr.mu_Q), [float(w) for w in rr.weights])
            == (want["degree"], want["mu_Q"], want["weights"]),
            "lsq_normal_equations":
                _relative_max_error(lsq_normal_equations(fs), want["weights"]) <= 1e-8,
            "direct_sis4_minimax": _relative_max_error(z, sol.z_star) <= 1e-8
            and abs(eps - abs(want["mu_Q"])) <= 1e-8 * abs(want["mu_Q"]),
            "degree_by_monomials": degree_by_monomials(ns, sol.omega) == want["degree"],
        }
        disagree += [(key, route) for route, agrees in routes.items() if not agrees]
    assert disagree == []


class TestDirectMinimax:
    def test_simpson(self):
        fs = build_system(SIMPSON)
        z, eps = direct_sis4_minimax(fs)
        np.testing.assert_allclose(z, [7 / 15, 4 / 3, 7 / 15], rtol=1e-13)
        assert eps == pytest.approx(4 / 15, rel=1e-14)

    def test_midpoint(self):
        fs = build_system(NodeSet((0.0,)))
        z, eps = direct_sis4_minimax(fs)
        np.testing.assert_allclose(z, [8 / 3], rtol=1e-14)
        assert eps == pytest.approx(2 / 3, rel=1e-14)

    @pytest.mark.parametrize("family,n,b", [(q.Family.NEWTON_COTES, 9, 1e-5),
                                            (q.Family.CLENSHAW_CURTIS, 12, 1e-3)])
    def test_short_interval_is_not_singular(self, family, n, b):
        # well posed, with pivots near 1e-33: an absolute pivot floor of
        # 1e-30 called these systems numerically singular
        fs = build_system(q.generate(q.FamilySpec(family, n), q.Interval(0.0, b)), eps_deg=0)
        sol = solve_rule(fs)
        z, eps = direct_sis4_minimax(fs)
        assert eps == pytest.approx(abs(fs.mu_Q), rel=1e-10)
        assert np.max(np.abs(z - sol.z_star)) <= 1e-10 * np.max(np.abs(sol.z_star))

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_agreement_with_tau_route(self, family, n):
        _, fs, sol = solved(family, n)
        z, eps = direct_sis4_minimax(fs)
        assert eps > 0.0
        assert eps == pytest.approx(abs(fs.mu_Q), rel=1e-10)
        assert np.max(np.abs(z - sol.z_star)) <= 1e-10 * max(1.0, np.max(np.abs(sol.z_star)))
