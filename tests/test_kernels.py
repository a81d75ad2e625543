"""The float-pair double-double kernels against the frozen scalar-DD route.

``quadlsq.ddouble``'s primitives and the O(n^2) loops built on them must do
the same IEEE operations, in the same order, as the scalar ``DD`` operators
and loops they replaced (kept in ``helpers`` as ``RefDD`` and ``ref_*``).
Every comparison here is on bit patterns, so signed zeros count.
"""

import itertools
import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import ddouble, oracle, system
from quadlsq.ddouble import (
    DD, dd_add, dd_div, dd_dot, dd_dot2, dd_mul, dd_ratio, split_operand, split_operands,
)
from quadlsq.nodes import _mirrored, _monic_coefficients, _monic_dd, _newton_step_dd
from quadlsq.system import (
    _back_substitute, _iter_moments_dd, _node_products_dd, _residual_dd, solve_rule,
)

from helpers import (
    FAMILIES,
    MIN_N,
    RefDD,
    _ref_from_fraction,
    asymmetric_rational_nodes,
    bits,
    ref_legendre_nodes,
    ref_monic,
    ref_newton_starts,
    lsq_error_bound,
    moments_dd,
    ref_centred_moments,
    ref_lsq_normal_equations,
    ref_moments,
    ref_node_products,
    ref_normal_products,
    ref_normal_system,
    ref_residual,
    ref_solve_upper,
)

# -- primitives ------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def _pairs(draw):
    """A (hi, lo) pair: normalised two-sum results, pairs with a signed-zero
    part, and exact doubles (lo = +-0)."""
    kind = draw(st.sampled_from(["two_sum", "scaled", "zero_hi", "exact"]))
    if kind == "two_sum":
        a = draw(st.floats(-1e150, 1e150, allow_nan=False))
        b = draw(st.floats(-1e150, 1e150, allow_nan=False))
        return ddouble.two_sum(a, b)
    if kind == "scaled":
        hi = draw(st.floats(-1e150, 1e150, allow_nan=False))
        u = draw(st.floats(-1.0, 1.0, allow_nan=False))
        return hi, hi * u * 2.0 ** -53
    if kind == "zero_hi":
        return draw(_signed_zero), draw(st.one_of(_signed_zero, st.floats(-1e-300, 1e-300)))
    return draw(_finite.filter(lambda x: abs(x) < 1e150)), draw(_signed_zero)


def _same(got, want):
    assert bits([tuple(got)]) == bits([tuple(want)]), (got, want)


def _same_sums(got, want):
    """A list of (hi, lo) pairs equal to ``want`` in length and in the bits
    of every entry, signed zeros included."""
    assert isinstance(got, list) and len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        _same(g, w)


def _same_or_both_raise(fn_got, fn_want):
    try:
        want = fn_want()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn_got()
        return
    _same(fn_got(), want)


class TestPrimitives:
    """Each primitive, and each DD operator over it, equals the reference
    operator bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(a=_pairs(), b=_pairs())
    def test_dd_by_dd(self, a, b):
        ra, rb = RefDD(*a), RefDD(*b)
        da, db = DD(*a), DD(*b)
        _same(dd_add(*a, *b), ra + rb)
        _same(dd_add(*a, -b[0], -b[1]), ra - rb)
        _same(dd_mul(*a, *b), ra * rb)
        _same(da + db, ra + rb)
        _same(da - db, ra - rb)
        _same(da * db, ra * rb)
        _same_or_both_raise(lambda: dd_div(*a, *b), lambda: ra / rb)
        _same_or_both_raise(lambda: da / db, lambda: ra / rb)

    @settings(max_examples=400, deadline=None)
    @given(a=_pairs(), f=st.one_of(_finite.filter(lambda x: abs(x) < 1e150), _signed_zero))
    def test_dd_by_double(self, a, f):
        ra, da = RefDD(*a), DD(*a)
        _same(dd_add(*a, f, 0.0), ra + f)
        _same(dd_mul(*a, f, 0.0), ra * f)
        _same(da + f, ra + f)
        _same(f + da, f + ra)
        _same(da - f, ra - f)
        _same(f - da, f - ra)
        _same(da * f, ra * f)
        _same(f * da, f * ra)
        _same(da * 3, ra * 3)
        _same_or_both_raise(lambda: da / f, lambda: ra / f)
        _same_or_both_raise(lambda: f / da, lambda: f / ra)
        _same(-da, -ra)
        _same(abs(da), abs(ra))

    @pytest.mark.parametrize("a", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    @pytest.mark.parametrize("b", [(0.0, 0.0), (-0.0, -0.0), (1.5, -0.0), (-2.0, 1e-17)])
    def test_signed_zeros(self, a, b):
        ra, rb = RefDD(*a), RefDD(*b)
        _same(dd_add(*a, *b), ra + rb)
        _same(dd_mul(*a, *b), ra * rb)
        _same(dd_mul(*a, b[0], 0.0), ra * b[0])
        _same(dd_add(*a, b[0], 0.0), ra + b[0])
        _same(dd_mul(*a, b[0], -0.0), ra * b[0])
        _same(dd_add(*a, b[0], -0.0), ra + b[0])
        _same(abs(DD(*a)), abs(ra))
        _same_or_both_raise(lambda: dd_div(*a, *b), lambda: ra / rb)

    @settings(max_examples=400, deadline=None)
    @given(a=_pairs(), f=st.one_of(_finite.filter(lambda x: abs(x) < 1e150), _signed_zero),
           zero=_signed_zero)
    def test_product_by_a_double(self, a, f, zero):
        # the inlined loops take the full product whatever the low part:
        # with a zero low part of either sign it has the bits of the
        # reference product by a double, whose cross term is al * f alone
        _same(dd_mul(*a, f, zero), RefDD(*a) * f)

    @settings(max_examples=400, deadline=None)
    @given(a=_pairs(), f=st.one_of(_finite.filter(lambda x: abs(x) < 1e150), _signed_zero),
           zero=_signed_zero)
    def test_sum_with_a_double(self, a, f, zero):
        # the full sum with a zero low part of either sign has the bits of
        # the reference sum with a double: one two-sum, one renormalisation
        _same(dd_add(*a, f, zero), RefDD(*a) + f)

    @settings(max_examples=400, deadline=None)
    @given(s=_pairs(), terms=st.lists(st.tuples(_pairs(), _pairs()), max_size=6))
    def test_dd_dot(self, s, terms):
        # every running sum of the written-out row equals the one of the
        # dd_mul/dd_add loop, and with the operands negated the one of the
        # loop that subtracts each product, which is how the backward pass
        # uses it; the moment recurrence reads them all
        rows = [a for a, _ in terms]
        xs = [x for _, x in terms]
        add, sub = [s], [s]
        for a, x in terms:
            ph, pl = dd_mul(*a, *x)
            add.append(dd_add(*add[-1], ph, pl))
            sub.append(dd_add(*sub[-1], -ph, -pl))
        _same_sums(dd_dot(*s, rows, split_operands(xs)), add)
        _same_sums(dd_dot(*s, rows, split_operands((-h, -l) for h, l in xs)), sub)
        _same_sums(dd_dot(*s, rows, [split_operand(-h, -l) for h, l in xs]), sub)
        # a row stops at the shorter of its pairs and operands
        _same_sums(dd_dot(*s, rows, split_operands(xs + xs)), add)
        _same_sums(dd_dot(*s, rows + rows, split_operands(xs)), add)

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_pairs(), _pairs()), min_size=1, max_size=8))
    def test_on_arrays_equal_scalar_calls(self, pairs):
        # elementwise on numpy arrays the primitives are the scalar calls,
        # bit for bit, signed zeros included: the normal equations build
        # their Gram matrix this way
        (ah, al), (bh, bl) = (np.array(part).T for part in zip(*pairs))
        for fn in (dd_add, dd_mul):
            got = fn(ah, al, bh, bl)
            want = [fn(*a, *b) for a, b in pairs]
            assert bits(zip(*(v.tolist() for v in got))) == bits(want), fn.__name__

    @settings(max_examples=400, deadline=None)
    @given(s=_pairs(), t=_pairs(), terms=st.lists(st.tuples(_pairs(), _pairs(), _pairs()),
                                                  max_size=6))
    def test_dd_dot2(self, s, t, terms):
        # the two sums of the fused row are the last sums of the two dd_dot
        # rows over the same pairs, with the operands as given and negated,
        # as the backward pass passes them
        rows = [a for a, _, _ in terms]
        for sign in (1.0, -1.0):
            xs = split_operands((sign * h, sign * l) for _, (h, l), _ in terms)
            ys = split_operands((sign * h, sign * l) for _, _, (h, l) in terms)
            got = dd_dot2(*s, *t, rows, xs, ys)
            _same(got[:2], dd_dot(*s, rows, xs)[-1])
            _same(got[2:], dd_dot(*t, rows, ys)[-1])

    def test_dd_dot2_signed_zeros(self):
        # every combination of signed zeros and exact products in one step,
        # and two steps, each sum against its own dd_dot row
        cases = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (1.0, -0.0), (-3.0, 0.0), (1.5, -0.0)]
        for s, t, a, x, y in itertools.product(cases, repeat=5):
            xs, ys = split_operands([x]), [split_operand(-y[0], -y[1])]
            got = dd_dot2(*s, *t, [a], xs, ys)
            _same(got[:2], dd_dot(*s, [a], xs)[-1])
            _same(got[2:], dd_dot(*t, [a], ys)[-1])
        for s, a, x, b, y in itertools.product(cases, repeat=5):
            t = (-s[0], -s[1])
            xs, ys = split_operands([x, y]), [split_operand(-v[0], -v[1]) for v in (y, x)]
            got = dd_dot2(*s, *t, [a, b], xs, ys)
            _same(got[:2], dd_dot(*s, [a, b], xs)[-1])
            _same(got[2:], dd_dot(*t, [a, b], ys)[-1])

    def test_dd_dot_signed_zeros(self):
        # every combination of signed zeros and exact products, where a
        # negated operand gives a zero of the other sign inside the product
        cases = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (1.0, -0.0), (-3.0, 0.0), (1.5, -0.0)]
        for s, a, x in itertools.product(cases, repeat=3):
            ph, pl = dd_mul(*a, *x)
            _same_sums(dd_dot(*s, [a], split_operands([x])), [s, dd_add(*s, ph, pl)])
            _same_sums(dd_dot(*s, [a], [split_operand(-x[0], -x[1])]),
                       [s, dd_add(*s, -ph, -pl)])
        # two steps: the second starts from the first's running sum
        for s, a, x, b, y in itertools.product(cases, repeat=5):
            mid = dd_add(*s, *dd_mul(*a, *x))
            _same_sums(dd_dot(*s, [a, b], split_operands([x, y])),
                       [s, mid, dd_add(*mid, *dd_mul(*b, *y))])
            mid = dd_add(*s, *(-v for v in dd_mul(*a, *x)))
            _same_sums(dd_dot(*s, [a, b], [split_operand(-v[0], -v[1]) for v in (x, y)]),
                       [s, mid, dd_add(*mid, *(-v for v in dd_mul(*b, *y)))])


# -- kernels ---------------------------------------------------------------

_NS = (1, 2, 3, 16, 17, 33, 48, 57, 64)
_INTERVALS = ((-1.0, 1.0), (2.0, 4.0))

PIPELINE_CASES = [
    pytest.param(q.generate(q.FamilySpec(fam, n), q.Interval(*iv)),
                 id=f"{fam.value}-{n}-({iv[0]:g},{iv[1]:g})")
    for fam in FAMILIES for n in _NS if n >= MIN_N[fam] for iv in _INTERVALS
] + [
    pytest.param(q.NodeSet(tuple(float(t) for t in asymmetric_rational_nodes(seed)),
                           q.Interval(0.0, 2.0)), id=f"rational-0-2-seed{seed}")
    for seed in (1, 2, 3)
]


def _system(ns):
    """The fundamental system; where the default zero threshold overflows,
    any mu_Q will do, since only the bits of the solves are compared."""
    try:
        return q.build_system(ns)
    except q.DegreeOverflowError:
        return q.build_system(ns, eps_deg=0.0)


def _padded(rows, n):
    """The n + 1 rows of F rebuilt from rows of A that start at the
    diagonal: zeros to the left of it, and a zero last row."""
    zero = (0.0, 0.0)
    return [(zero,) * i + tuple(row) for i, row in enumerate(rows)] + [(zero,) * n]


def _floats(xs):
    return [float(v) for v in xs]


@pytest.mark.parametrize("ns", PIPELINE_CASES)
def test_pipeline_bit_identical(ns):
    n = ns.n
    mom = ref_moments(ns)
    assert bits(moments_dd(ns)) == bits(mom)
    rows = _node_products_dd(ns.nodes)
    ref_rows = ref_node_products(ns.nodes)
    # the store keeps row i from column i on; the reference pads it with zeros
    assert [len(row) for row in rows] == list(range(n, 0, -1))
    assert bits(e for row in rows for e in row) == bits(
        e for i, row in enumerate(ref_rows) for e in row[i:])

    fs = _system(ns)
    assert bits(e for row in fs.A_dd for e in row) == bits(e for row in rows for e in row)
    assert bits(fs.leading_dd) == bits(mom[:fs.degree + 2])
    F = _padded(fs.A_dd, n)
    c_tilde = fs.leading_dd[:n] + fs.leading_dd[-1:]
    sol = solve_rule(fs)
    w = ref_solve_upper(F[:n], c_tilde[:n])
    t = ref_solve_upper(F[:n], [abs(RefDD(*c_tilde[n]))] * n)
    z = [a + b for a, b in zip(w, t)]
    assert bits(sol._omega_dd) == bits(w)
    assert bits(sol._tau_dd) == bits(t)
    assert bits(sol._z_dd) == bits(z)
    r_w, r_z = _residual_dd(fs, sol._omega_dd, sol._z_dd)
    assert bits(r_w) == bits(ref_residual(F, c_tilde, w))
    assert bits(r_z) == bits(ref_residual(F, c_tilde, z))
    x, y = _back_substitute(fs.A_dd, c_tilde[:n], [abs(RefDD(*c_tilde[n]))] * n)
    assert bits(x) == bits(w)
    assert bits(y) == bits(t)

    # The public doubles against float() of the reference route alone:
    # its rows of A, its moments, and the solves and residuals on them.
    ref_F = ref_rows + [(RefDD(),) * n]
    mu_q = mom[fs.degree + 1]
    ref_c_tilde = mom[:n] + [mu_q]
    omega, tau = _floats(w), _floats(t)
    z_star = [a + b for a, b in zip(omega, tau)]
    assert bits(fs.F.ravel()) == bits(float(e) for row in ref_F for e in row)
    assert bits(fs.A.ravel()) == bits(float(e) for row in ref_rows for e in row)
    assert bits(fs.c_tilde) == bits(_floats(ref_c_tilde))
    assert bits(fs.c) == bits(_floats(mom[:n]))
    assert bits([fs.mu_Q]) == bits([float(mu_q)])
    assert bits(sol.omega) == bits(omega)
    assert bits(sol.tau) == bits(tau)
    assert bits(sol.z_star) == bits(z_star)
    assert bits(q.residual(fs, sol._omega_dd)) == bits(_floats(ref_residual(ref_F, ref_c_tilde, w)))
    assert bits(q.residual(fs, sol.omega)) == bits(
        _floats(ref_residual(ref_F, ref_c_tilde, [(v, 0.0) for v in omega])))
    assert bits(q.equioscillation_residual(fs, sol)) == bits(
        _floats(ref_residual(ref_F, ref_c_tilde, z)))
    assert bits(q.equioscillation_residual(fs, sol.z_star)) == bits(
        _floats(ref_residual(ref_F, ref_c_tilde, [(v, 0.0) for v in z_star])))


def _random_pairs(rng, n):
    """n (hi, lo) pairs: two-sums of doubles in [-1e3, 1e3], every fifth a
    signed zero."""
    return [rng.choice(((0.0, 0.0), (-0.0, -0.0))) if k % 5 == 4
            else ddouble.two_sum(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            for k in range(n)]


@pytest.mark.parametrize("ns", PIPELINE_CASES)
def test_two_vectors_per_walk_bit_identical(ns):
    # the backward pass solves two unrelated right-hand sides, and the
    # residual forms r of two unrelated vectors, each with the bits of the
    # frozen single-vector route
    fs = _system(ns)
    n = fs.n
    F = _padded(fs.A_dd, n)
    c_tilde = fs.leading_dd[:n] + fs.leading_dd[-1:]
    rng = random.Random(n)
    b, c, x, y = (_random_pairs(rng, n) for _ in range(4))
    got_b, got_c = _back_substitute(fs.A_dd, b, c)
    assert bits(got_b) == bits(ref_solve_upper(F[:n], b))
    assert bits(got_c) == bits(ref_solve_upper(F[:n], c))
    r_x, r_y = _residual_dd(fs, x, y)
    assert bits(r_x) == bits(ref_residual(F, c_tilde, x))
    assert bits(r_y) == bits(ref_residual(F, c_tilde, y))


@pytest.mark.parametrize("ns", PIPELINE_CASES)
def test_moment_scan_prefixes_bit_identical(ns):
    # each moment as it is pulled, so every prefix of the scan; then scans
    # stopped early, each twice
    mom = ref_moments(ns)
    scan = _iter_moments_dd(ns)
    for k, want in enumerate(mom):
        assert bits([next(scan)]) == bits([want]), k
    assert next(scan, None) is None
    for k in sorted({0, 1, ns.n, ns.n + 1, ns.n + 2, 2 * ns.n}):
        assert bits(islice(_iter_moments_dd(ns), k)) == bits(mom[:k])
        assert bits(islice(_iter_moments_dd(ns), k)) == bits(mom[:k])


ORACLE_CASES = [
    pytest.param(q.generate(q.FamilySpec(fam, n), q.Interval(*iv)),
                 id=f"{fam.value}-{n}-({iv[0]:g},{iv[1]:g})")
    for fam in FAMILIES for n in (1, 2, 3, 9, 16, 24) if n >= MIN_N[fam] for iv in _INTERVALS
] + [
    pytest.param(q.NodeSet(tuple(float(t) for t in asymmetric_rational_nodes(1, n)),
                           q.Interval(0.0, 2.0)), id=f"rational-0-2-n{n}")
    for n in (6, 12, 18)
] + PIPELINE_CASES[-3:]


def _ref_pairwise(terms):
    """The RefDD sum of the normal system's pairwise tree: the upper half
    of the terms added onto the lower half until one is left."""
    terms = list(terms)
    m = len(terms)
    while m > 1:
        h = m // 2
        terms[:h] = [x + y for x, y in zip(terms[:h], terms[m - h:m])]
        m -= h
    return terms[0]


def _dd_value(pair):
    return Fraction(pair[0]) + Fraction(pair[1])


#: u_DD = 7 u^2, the relative error of one double-double sum
_U_DD = Fraction(7, 2 ** 106)


@pytest.mark.parametrize("ns", ORACLE_CASES)
def test_lsq_normal_equations_bit_identical(ns):
    # [G | b] = F^T [F | c_tilde] of the oracle, built on arrays, against
    # scalar RefDD products: bit for bit when they are summed in the
    # oracle's pairwise tree (F's zero last row dropped), and within the
    # error of two summation orders of the frozen row-order sum.  Any tree
    # of m - 1 double-double sums is within (m - 1) u_DD / (1 - (m - 1) u_DD)
    # of sum |p_k|, so two of them differ by at most twice that.
    fs = _system(ns)
    n = fs.n
    F = _padded(fs.A_dd, n)
    c_tilde = fs.leading_dd[:n] + fs.leading_dd[-1:]
    gh, gl = oracle._normal_system(fs)
    got = [list(zip(h, l)) for h, l in zip(gh.tolist(), gl.tolist())]
    products = ref_normal_products(F, c_tilde)
    want = [[_ref_pairwise(terms[:n]) for terms in row] for row in products]
    assert bits(v for row in got for v in row) == bits(tuple(v) for row in want for v in row)

    frozen = ref_normal_system(F, c_tilde)
    slack = 2 * n * _U_DD / (1 - n * _U_DD)
    for i in range(n):
        for j in range(n + 1):
            size = sum(abs(_dd_value(p)) for p in products[i][j])
            assert abs(_dd_value(got[i][j]) - _dd_value(frozen[i][j])) <= slack * size, (i, j)


@pytest.mark.parametrize("ns", ORACLE_CASES)
def test_lsq_normal_equations_elimination_bit_identical(ns):
    # the right-looking array steps, the dd_dot rows after them and the
    # back-substitution against the frozen row-by-row loop, on the same
    # [G | b]: the weights bit for bit
    fs = _system(ns)
    assert bits(q.lsq_normal_equations(fs)) == bits(ref_lsq_normal_equations(fs))


@pytest.mark.parametrize("ns", ORACLE_CASES)
def test_lsq_normal_equations_within_bound(ns):
    # the solution against the exact weights of the same double nodes
    fs = _system(ns)
    w = q.rational_pipeline(ns).weights
    y = q.lsq_normal_equations(fs)
    err = max(abs(Fraction(float(a)) - b) for a, b in zip(y, w))
    assert err <= lsq_error_bound(fs, w)


@pytest.mark.parametrize("n", range(1, 65))
def test_gauss_legendre_nodes_bit_identical(n):
    assert bits(q.legendre_nodes(n)) == bits(ref_legendre_nodes(n))


@pytest.mark.parametrize("n", _NS)
def test_monic_dd_bit_identical(n):
    # the one recurrence of the Newton step and of the acceptance check:
    # V_{n-1} and V_n at every root, where the step runs it on a double,
    # and off the root by a low part, where the check runs it on a pair
    coeffs = _monic_coefficients(n)
    for t in q.legendre_nodes(n):
        for x in ((t, 0.0), (t, t * 2.0 ** -60), (0.5 * t, -(t * 2.0 ** -58))):
            assert bits([_monic_dd(*x, coeffs)]) == bits(ref_monic(n, x))


def test_recurrence_ratios_equal_from_fraction():
    # the integer ratios are rounded to double-double by dd_ratio; each
    # pair must be the one the frozen Fraction route rounds to
    k = 2000
    want = [_ref_from_fraction(Fraction(-4 * (j - 1) ** 2, 4 * (j - 1) ** 2 - 1))
            for j in range(2, k + 1)]
    assert bits(_monic_coefficients(k)) == bits(want)


@pytest.mark.parametrize("n", [400, 1100])
def test_gauss_legendre_start_is_as_good_as_newton(n):
    # where the Jacobi eigenvalues are furthest from the zeros (2.1e-15 at
    # n = 1100): the same double-double step and check from the old start,
    # Newton's iteration in doubles, give the same bits
    coeffs = _monic_coefficients(n)
    vtol = 1e-14 * (4 ** n / math.comb(2 * n, n))
    half = []
    for x in ref_newton_starts(n):
        xh, xl = _newton_step_dd(n, x, coeffs)
        _, _, vh, vl = _monic_dd(xh, xl, coeffs)
        assert abs(vh + vl) < vtol
        half.append(xh + xl)
    assert bits(q.legendre_nodes(n)) == bits(_mirrored(half, n))


def test_gauss_legendre_nodes_large_n():
    # an unscaled monic recurrence underflows here (2^-n); the scaled one
    # stays near P_n sqrt(pi n)
    n = 1100
    nodes = q.legendre_nodes(n)
    assert len(nodes) == n
    assert all(math.isfinite(t) for t in nodes)
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert -1.0 < nodes[0] and nodes[-1] < 1.0
    assert bits(nodes) == bits([-t for t in reversed(nodes)])


# -- the M_0 starts ---------------------------------------------------------

def _rule(family, n, a, b):
    return q.generate(q.FamilySpec(family, n), q.Interval(a, b))


class TestMomentMemo:
    # the profile of a rule does not depend on which rules ran before it
    def test_other_interval_after_a_warm_one(self):
        first = _rule(q.Family.CLENSHAW_CURTIS, 9, -1.0, 1.0)
        second = _rule(q.Family.CLENSHAW_CURTIS, 9, 0.0, 2.0)
        cold = bits(moments_dd(second))
        moments_dd(first)
        assert bits(moments_dd(second)) == cold
        assert cold == bits(ref_moments(second))

    def test_same_midpoint_other_half_length(self):
        # (-1, 1) and (-2, 2) share c = 0
        wide = _rule(q.Family.FEJER1, 5, -2.0, 2.0)
        cold = bits(moments_dd(wide))
        moments_dd(_rule(q.Family.FEJER1, 5, -1.0, 1.0))
        assert bits(moments_dd(wide)) == cold

    def test_short_after_long(self):
        short = _rule(q.Family.NEWTON_COTES, 3, -1.0, 1.0)
        cold = bits(moments_dd(short))
        moments_dd(_rule(q.Family.NEWTON_COTES, 33, -1.0, 1.0))
        assert bits(moments_dd(short)) == cold

    def test_long_after_short_extends(self):
        long = _rule(q.Family.GAUSS_LEGENDRE, 33, 2.0, 4.0)
        cold = bits(moments_dd(long))
        moments_dd(_rule(q.Family.GAUSS_LEGENDRE, 3, 2.0, 4.0))
        assert bits(moments_dd(long)) == cold


#: Endpoints off-centre, subnormal, huge and of mixed exponent: any finite
#: double, with the extremes of the range weighted up.
_endpoint = st.one_of(
    _finite,
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestCentredMonomialMoments:
    """The integer starts against the frozen Fraction route, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(ends=st.lists(_endpoint, min_size=2, max_size=2, unique=True), n=st.integers(0, 40))
    @example(ends=[0.1, 0.7], n=40)
    @example(ends=[0.0, 1e-60], n=40)
    @example(ends=[-3e-310, 5e-310], n=40)
    @example(ends=[-1e50, 1e50], n=40)
    @example(ends=[-1e300, 1e-300], n=40)
    @example(ends=[-1.7976931348623157e308, 1.7976931348623157e308], n=2)
    @example(ends=[-1e-3, 1.0], n=40)
    @example(ends=[5e-324, 1.0], n=40)
    @example(ends=[-1e300, 1e300], n=40)
    def test_equal_to_fraction_route(self, ends, n):
        a, b = sorted(ends)
        want = [tuple(_ref_from_fraction(x)) for x in ref_centred_moments(a, b, 2 * n + 1)]
        got = list(islice(system._centred_monomial_moments(q.Interval(a, b)), 2 * n + 1))
        assert bits(got) == bits(want)

    def test_overflow_is_signed_infinity_at_the_same_index(self):
        big = 1.7976931348623157e308
        got = list(islice(system._centred_monomial_moments(q.Interval(-big, big)), 3))
        assert got[0] == (math.inf, 0.0)
        assert bits(got[1:]) == bits([(0.0, 0.0), (math.inf, 0.0)])


class TestDDRatio:
    """``dd_ratio`` against the frozen Fraction route, on integers beyond
    2^53 and beyond the double range, signed zeros and infinities included."""

    @settings(max_examples=300, deadline=None)
    @given(num=st.one_of(st.integers(-(2 ** 1200), 2 ** 1200), st.integers(-(2 ** 60), 2 ** 60)),
           den=st.one_of(st.integers(1, 2 ** 1200), st.integers(1, 2 ** 60)))
    @example(num=2 ** 1100, den=3)
    @example(num=-(2 ** 1100), den=3)
    @example(num=1, den=2 ** 1100)
    @example(num=-1, den=2 ** 1100)
    @example(num=-3, den=2 ** 1075)
    @example(num=2 ** 54 + 1, den=1)
    def test_equal_to_fraction_route(self, num, den):
        assert bits([dd_ratio(num, den)]) == bits([tuple(_ref_from_fraction(Fraction(num, den)))])


# -- moment overflow -------------------------------------------------------

class TestMomentOverflow:
    @pytest.mark.parametrize("family,n,interval,index,half", [
        (q.Family.GAUSS_LEGENDRE, 64, (0.0, 1000.0), 110, "500"),
        (q.Family.NEWTON_COTES, 40, (0.0, 1e8), 39, "5e+07"),
    ])
    def test_typed_failure(self, family, n, interval, index, half):
        ns = _rule(family, n, *interval)
        assert any(not math.isfinite(m[0]) for m in moments_dd(ns))
        with pytest.raises(q.MomentOverflowError) as info:
            q.build_system(ns)
        assert f"mu_{index} is not finite" in str(info.value)
        assert f"half-length {half} " in str(info.value)
        assert issubclass(q.MomentOverflowError, q.NumericalFailure)

    def test_finite_moments_do_not_raise(self):
        # on (0, 1000) the moments still fit the double range at n = 40
        ns = _rule(q.Family.GAUSS_LEGENDRE, 40, 0.0, 1000.0)
        assert all(math.isfinite(m[0]) for m in moments_dd(ns))
        assert q.build_system(ns).n == 40

