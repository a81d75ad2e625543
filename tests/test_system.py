import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import (
    DegreeOverflowError,
    Interval,
    NodeSet,
    RuleSolution,
    SingularDiagonalError,
    build_system,
    rational_pipeline,
    residual,
    residual_norms,
    solve_rule,
)
from quadlsq.ddouble import dd_add
from quadlsq.system import _default_eps_deg, _iter_moments_dd, _node_products_dd

from helpers import (
    FAMILIES, MIN_N, asymmetric_rational_nodes, bits, family_cases, moments_dd, nodeset,
    ref_centred_moments, solved,
)

SIMPSON = NodeSet((-1.0, 0.0, 1.0))


class TestBuildSystem:
    def test_simpson_golden(self):
        fs = build_system(SIMPSON)
        np.testing.assert_array_equal(
            fs.A, [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 2.0]]
        )
        np.testing.assert_allclose(fs.c, [2.0, 2.0, 2.0 / 3.0], rtol=0, atol=1e-16)
        assert fs.mu_Q == pytest.approx(-4.0 / 15.0, abs=1e-16)
        assert fs.degree == 3
        # last row of F is zero, c_tilde ends with mu_Q
        np.testing.assert_array_equal(fs.F[3], [0.0, 0.0, 0.0])
        assert fs.c_tilde[3] == fs.mu_Q
        assert fs.F.shape == (4, 3)

    def test_cc4_golden(self):
        # consistent value of the (2,3) entry is 3/2 = phi_1(1/2); the
        # printed source has a typo there that contradicts its own weights
        fs = build_system(NodeSet((-1.0, -0.5, 0.5, 1.0)))
        expected_a = [
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.5, 1.5, 2.0],
            [0.0, 0.0, 1.5, 3.0],
            [0.0, 0.0, 0.0, 1.5],
        ]
        np.testing.assert_allclose(fs.A, expected_a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            fs.c, [2.0, 2.0, 5.0 / 3.0, 1.0 / 6.0], rtol=0, atol=1e-15
        )
        assert fs.mu_Q == pytest.approx(1.0 / 15.0, abs=1e-15)
        assert fs.degree == 3

    def test_midpoint_golden(self):
        fs = build_system(NodeSet((0.0,)))
        np.testing.assert_array_equal(fs.A, [[1.0]])
        np.testing.assert_array_equal(fs.c, [2.0])
        assert fs.mu_Q == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert fs.degree == 1

    def test_moment_profile_stored(self):
        fs = build_system(SIMPSON)
        mom = moments_dd(SIMPSON)
        # mu_0..mu_2 then mu_3..mu_6
        np.testing.assert_allclose(
            [h + l for h, l in mom],
            [2.0, 2.0, 2.0 / 3.0, 0.0, -4.0 / 15.0, -4.0 / 15.0, 16.0 / 105.0],
            rtol=0,
            atol=1e-15,
        )
        # the system stores mu_0..mu_Q, mu_Q = mu_4
        assert bits(fs.leading_dd) == bits(mom[:fs.degree + 2])

    def test_arrays_are_readonly(self):
        fs = build_system(SIMPSON)
        with pytest.raises(ValueError):
            fs.A[0, 0] = 7.0


class TestStore:
    """Both result types hold only their double-double store; every double
    is derived from it."""

    def test_fields_are_the_store(self):
        fs = build_system(SIMPSON)
        assert list(vars(fs)) == ["nodes", "eps_deg", "degree", "A_dd", "leading_dd"]
        assert list(vars(solve_rule(fs))) == ["_omega_dd", "_tau_dd"]

    def test_solution_needs_its_pairs(self):
        sol = solve_rule(build_system(SIMPSON))
        with pytest.raises(TypeError):
            RuleSolution(omega=sol.omega, z_star=sol.z_star, tau=sol.tau)
        with pytest.raises(TypeError):
            RuleSolution()
        with pytest.raises(TypeError):
            RuleSolution(sol._omega_dd)

    @pytest.mark.parametrize("family,n", [(q.Family.NEWTON_COTES, 3), (q.Family.FEJER1, 8),
                                          (q.Family.CLENSHAW_CURTIS, 17),
                                          (q.Family.GAUSS_LEGENDRE, 12)])
    def test_doubles_are_hi_plus_lo(self, family, n):
        _, fs, sol = solved(family, n)
        assert fs.n == n == len(fs.nodes.nodes)
        h, l = fs.leading_dd[-1]
        assert bits([fs.mu_Q]) == bits([h + l])
        for i, row in enumerate(fs.A_dd):
            assert bits(fs.A[i, :i]) == bits([0.0] * i)
            assert bits(fs.A[i, i:]) == bits([h + l for h, l in row])
        assert bits(sol.omega) == bits([h + l for h, l in sol._omega_dd])
        assert bits(sol.tau) == bits([h + l for h, l in sol._tau_dd])
        assert bits(sol.z_star) == bits(sol.omega + sol.tau)
        assert bits(sol._z_dd) == bits(
            dd_add(*w, *t) for w, t in zip(sol._omega_dd, sol._tau_dd))
        for v in (fs.A, sol.omega, sol.tau, sol.z_star):
            assert not v.flags.writeable
        assert fs.A is fs.A and sol.z_star is sol.z_star  # cached

    def test_reprs_show_the_derived_values(self):
        fs = build_system(SIMPSON)
        sol = solve_rule(fs)
        assert repr(fs) == (f"FundamentalSystem(A={fs.A!r}, mu_Q={fs.mu_Q!r}, degree=3, "
                            f"nodes={SIMPSON!r}, eps_deg={fs.eps_deg!r})")
        assert repr(sol) == (f"RuleSolution(omega={sol.omega!r}, z_star={sol.z_star!r}, "
                             f"tau={sol.tau!r})")
        assert "mu_Q=-0.26666666666666666" in repr(fs)


class TestDetectDegree:
    """Degree detection, read from the system that :func:`build_system`
    builds."""

    def test_simpson(self):
        fs = build_system(SIMPSON)
        assert fs.degree == 3
        assert fs.mu_Q == pytest.approx(-4.0 / 15.0, abs=1e-16)

    def test_gl2(self):
        # nodes +-1/sqrt(3): mu_2 = mu_3 = 0, mu_4 = int (x^2-1/3)^2 = 8/45
        fs = build_system(nodeset(q.Family.GAUSS_LEGENDRE, 2))
        assert fs.degree == 3
        assert fs.mu_Q == pytest.approx(8.0 / 45.0, abs=1e-13)

    def test_fejer3(self):
        fs = build_system(nodeset(q.Family.FEJER1, 3))
        assert fs.degree == 3
        assert fs.mu_Q == pytest.approx(-0.1, abs=1e-14)

    def test_degree_overflow_with_bad_threshold(self):
        with pytest.raises(DegreeOverflowError, match="degree overflow"):
            build_system(SIMPSON, eps_deg=1e6)

    def test_degree_overflow_names_the_largest_moment(self):
        # the default threshold lies above GL-21's |mu_Q| = |mu_42|
        ns = nodeset(q.Family.GAUSS_LEGENDRE, 21)
        with pytest.raises(DegreeOverflowError, match=(
                r"^degree overflow: no extended moment mu_21\.\.mu_42 is above the zero "
                r"threshold 2e-12; the largest is \|mu_42\| = 7\.06\d*e-13$")):
            build_system(ns)

    def test_threshold_knob_passes_through_build(self):
        # a given threshold is the one the system keeps and scans with:
        # mu_4 = -4/15 of Simpson's rule is below 0.3 but not below 0.2
        assert build_system(SIMPSON, eps_deg=0.2).eps_deg == 0.2
        with pytest.raises(DegreeOverflowError):
            build_system(SIMPSON, eps_deg=0.3)

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(-1e-300, 1e-300)),
                         min_size=2, max_size=2, unique=True).map(sorted))
    def test_default_threshold_reads_the_width(self, ends):
        # the default threshold is read from the width b - a before the
        # scan, and equals the one read from mu_0, the integral of 1
        iv = Interval(*ends)
        h, l = next(_iter_moments_dd(NodeSet((iv.mid,), iv)))
        width = 2.0 * iv.rad
        if math.isfinite(width):
            assert _default_eps_deg(width) == _default_eps_deg(h + l)
        else:  # the scan stops at mu_0, before the threshold is read
            assert not math.isfinite(h + l)
            with pytest.raises(q.MomentOverflowError, match="moment mu_0 is not finite"):
                build_system(NodeSet((iv.a, iv.b), iv))

    @pytest.mark.parametrize("eps_deg", [-1.0, -1e-300, math.nan, math.inf, -math.inf, True,
                                         "0.2", b"0.2", Decimal("0.2")])
    def test_invalid_threshold_is_an_input_error(self, eps_deg):
        # an input error, not a numerical failure further down the pipeline;
        # True was a threshold of 1.0, and the text and Decimal ones 0.2
        with pytest.raises(ValueError, match="eps_deg must be a finite number >= 0"):
            build_system(SIMPSON, eps_deg=eps_deg)


class TestSolveWeights:
    def test_simpson(self):
        w = solve_rule(build_system(SIMPSON)).omega
        np.testing.assert_allclose(w, [1 / 3, 4 / 3, 1 / 3], rtol=0, atol=1e-16)

    def test_cc4(self):
        w = solve_rule(build_system(NodeSet((-1.0, -0.5, 0.5, 1.0)))).omega
        np.testing.assert_allclose(w, [1 / 9, 8 / 9, 8 / 9, 1 / 9], rtol=0, atol=1e-15)

    def test_gl2(self):
        _, fs, _ = solved(q.Family.GAUSS_LEGENDRE, 2)
        np.testing.assert_allclose(solve_rule(fs).omega, [1.0, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_weights_sum_to_mu0(self, family, n):
        _, fs, sol = solved(family, n)
        assert math.fsum(sol.omega) == pytest.approx(2.0, rel=1e-12)

    def test_deterministic_after_resorting(self):
        nodes = list(nodeset(q.Family.GAUSS_LEGENDRE, 7).nodes)
        shuffled = nodes[:]
        random.Random(42).shuffle(shuffled)
        w1 = solve_rule(build_system(NodeSet(tuple(nodes)))).omega
        w2 = solve_rule(build_system(NodeSet(tuple(sorted(shuffled))))).omega
        assert w1.tolist() == w2.tolist()

    def test_underflowing_diagonal_is_a_typed_failure(self):
        # the system builds (degree 3), but phi_2(t_3) = 2e-400 underflows
        # to (0.0, 0.0), so A has a zero pivot
        fs = build_system(NodeSet((0.0, 1e-200, 2e-200)))
        assert fs.degree == 3
        assert fs.A_dd[2] == ((0.0, 0.0),)
        with pytest.raises(SingularDiagonalError, match="singular diagonal at row 3"):
            solve_rule(fs)


class TestResidual:
    def test_simpson_at_omega(self):
        fs = build_system(SIMPSON)
        r = residual(fs, solve_rule(fs).omega)
        np.testing.assert_allclose(r[:3], 0.0, rtol=0, atol=1e-15)
        assert r[3] == pytest.approx(4.0 / 15.0, abs=1e-16)

    def test_simpson_at_z_star(self):
        fs = build_system(SIMPSON)
        sol = q.solve_rule(fs)
        r = residual(fs, sol.z_star)
        np.testing.assert_allclose(r, 4.0 / 15.0, rtol=1e-14)

    def test_at_zero_vector(self):
        fs = build_system(SIMPSON)
        np.testing.assert_array_equal(residual(fs, [0.0, 0.0, 0.0]), -fs.c_tilde)

    def test_length_mismatch(self):
        fs = build_system(SIMPSON)
        with pytest.raises(ValueError):
            residual(fs, [1.0, 2.0])


#: Vectors of NC n = 5 that are not 1-d of length 5: each with its shape
_NOT_VECTORS = {
    "column": (lambda sol: sol.omega[:, None], (5, 1)),
    "row": (lambda sol: sol.z_star[None, :], (1, 5)),
    "list of rows": (lambda sol: [[1.0]] * 5, (5, 1)),
    "list of 1-element arrays": (lambda sol: list(sol.omega[:, None]), (5, 1)),
    "0-d array": (lambda sol: np.array(1.0), ()),
    "scalar": (lambda sol: 1.0, ()),
}

#: Every function that takes a vector with a rule, the bad vector in each
#: place, and the start of its message: the first vector of a pair may
#: have any length, the others must have n
_VECTOR_TAKERS = {
    "residual": (lambda fs, sol, x: residual(fs, x), 5),
    "epsilon_check": (lambda fs, sol, x: q.epsilon_check(fs, x), 5),
    "equioscillation_residual": (lambda fs, sol, x: q.equioscillation_residual(fs, x), 5),
    "bounds_omega_gamma(x, z*)": (lambda fs, sol, x: q.bounds_omega_gamma(fs, x, sol.z_star), 5),
    "bounds_omega_gamma(omega, x)": (lambda fs, sol, x: q.bounds_omega_gamma(fs, sol.omega, x),
                                     5),
    "norm_params(omega, x)": (lambda fs, sol, x: q.norm_params(sol.omega, x), 5),
    "rule_angle(omega, x)": (lambda fs, sol, x: q.rule_angle(sol.omega, x), 5),
    "degree_by_monomials": (lambda fs, sol, x: q.degree_by_monomials(fs.nodes, x), 5),
    "norm_params(x, z*)": (lambda fs, sol, x: q.norm_params(x, sol.z_star), None),
    "rule_angle(x, z*)": (lambda fs, sol, x: q.rule_angle(x, sol.z_star), None),
    "residual_norms": (lambda fs, sol, x: residual_norms(x), None),
}


class TestVectorShape:
    """The one coercion of a vector passed in checks its shape before it
    reads an entry: a column or a row, a list of rows, a 0-d array or a
    scalar is a ``ValueError`` that names the shape, not a bare
    ``TypeError`` from converting an entry."""

    @pytest.mark.parametrize("taker", list(_VECTOR_TAKERS))
    @pytest.mark.parametrize("bad", list(_NOT_VECTORS))
    def test_not_a_vector_names_its_shape(self, bad, taker):
        _, fs, sol = solved(q.Family.NEWTON_COTES, 5)
        make, shape = _NOT_VECTORS[bad]
        call, n = _VECTOR_TAKERS[taker]
        want = "expected a vector" + ("" if n is None else f" of length {n}")
        with pytest.raises(ValueError, match=re.escape(f"{want}, got shape {shape}")):
            call(fs, sol, make(sol))


def _sqrt_correctly_rounded(s):
    """sqrt(s) rounded to the nearest double (ties to even), s an int >= 0.

    r = isqrt(s 4^k) = floor(sqrt(s) 2^k) carries at least 55 bits; the
    bits below the 53 kept, plus whether the root is inexact, decide the
    rounding.
    """
    if s == 0:
        return 0.0
    k = max(0, (112 - s.bit_length()) // 2)
    r = math.isqrt(s << 2 * k)
    inexact = r * r != s << 2 * k
    drop = r.bit_length() - 53
    top, rest, half = r >> drop, r & ((1 << drop) - 1), 1 << (drop - 1)
    if rest > half or (rest == half and (inexact or top & 1)):
        top += 1
    return math.ldexp(top, drop - k)


class TestResidualNorms:
    def test_constant_residual_vector(self):
        norms = residual_norms([0.0, 0.0, 0.0, 4.0 / 15.0])
        for p in (1, 2, 3, math.inf):
            assert norms[p] == pytest.approx(4.0 / 15.0, abs=1e-16)

    def test_two_norm(self):
        assert residual_norms([1.0, 1.0])[2] == pytest.approx(math.sqrt(2.0))

    def test_keys_are_the_four_norms(self):
        assert set(residual_norms([1.0])) == {1, 2, 3, math.inf}

    @pytest.mark.parametrize("scale", [pytest.param(2.0 ** 700, id="2^700"),
                                       pytest.param(2.0 ** -700, id="2^-700")])
    def test_no_overflow_or_underflow(self, scale):
        # |r|^p would overflow (or flush to 0) unscaled; a 3-4-5 triangle
        norms = residual_norms([0.0, 3.0 * scale, -4.0 * scale])
        assert norms[1] == 7.0 * scale
        assert norms[2] == 5.0 * scale
        assert norms[3] == pytest.approx(91.0 ** (1 / 3) * scale, rel=1e-15)
        assert norms[math.inf] == 4.0 * scale

    def test_two_norm_is_correctly_rounded(self):
        # Integer components with an exact double sum of squares S, so the
        # norm's one rounding is the square root's.  libm pow(S, 0.5) rounds
        # the first five wrongly; each is a 2-vector below 2^26.
        rng = random.Random(2)
        cases = [(53540181, 46644076), (51611239, 14022077), (66225355, 26654041),
                 (43289070, 21153567), (16938248, 58342701)] + [
            tuple(rng.randrange(2 ** 25) for _ in range(rng.randint(1, 8)))
            for _ in range(2000)
        ]
        for ks in cases:
            norm = residual_norms([float(k) for k in ks])[2]
            assert norm == _sqrt_correctly_rounded(sum(k * k for k in ks)), ks

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_constant_norm_property(self, family, n):
        # every p-norm of r(omega) equals |mu_Q|
        _, fs, sol = solved(family, n)
        r = residual(fs, list(sol._omega_dd))
        norms = residual_norms(r)
        for p in (1, 2, 3, math.inf):
            assert norms[p] == pytest.approx(abs(fs.mu_Q), rel=1e-12)


class TestDegreeBounds:
    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_degree_within_theoretical_bounds(self, family, n):
        _, fs, _ = solved(family, n)
        assert n - 1 <= fs.degree <= 2 * n - 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gauss_legendre_is_maximal(self, n):
        _, fs, _ = solved(q.Family.GAUSS_LEGENDRE, n)
        assert fs.degree == 2 * n - 1


class TestDerivedRegressions:
    def test_cc17_principal_moment(self):
        # exact value for 17 practical abscissas, derived from Chebyshev
        # identities: mu_18 = 64 / (62985 * 2^15)
        _, fs, _ = solved(q.Family.CLENSHAW_CURTIS, 17)
        assert fs.degree == 17
        assert fs.mu_Q == pytest.approx(64.0 / (62985.0 * 32768.0), rel=1e-12)

    def test_cc18_principal_moment(self):
        # 18 abscissas: mu_18 = 4 / (4845 * 2^16)
        _, fs, _ = solved(q.Family.CLENSHAW_CURTIS, 18)
        assert fs.degree == 17
        assert fs.mu_Q == pytest.approx(4.0 / (4845.0 * 65536.0), rel=1e-12)

    def test_fejer17_principal_moment(self):
        # mu_18 = int x T_17(x)/2^16 dx = -(1/323 + 1/255) / 2^16
        _, fs, _ = solved(q.Family.FEJER1, 17)
        assert fs.degree == 17
        expected = -(1.0 / 323.0 + 1.0 / 255.0) / 65536.0
        assert fs.mu_Q == pytest.approx(expected, rel=1e-12)


KERNEL_CASES = [pytest.param(nodeset(fam, 24), id=fam.value) for fam in FAMILIES] + [
    pytest.param(
        NodeSet(tuple(float(t) for t in asymmetric_rational_nodes(seed)), Interval(0.0, 2.0)),
        id=f"rational-0-2-seed{seed}",
    )
    for seed in (1, 2, 3)
]


def _dd_error(x_dd, exact):
    """|x_dd - exact|, exactly."""
    return abs(Fraction(x_dd[0]) + Fraction(x_dd[1]) - exact)


def _assert_matrix_exact(A_dd, rr):
    """Every entry of A within relative 1e-30 of the exact entry."""
    # row i of the store starts at column i; the exact rows are full
    for i, (row_dd, row) in enumerate(zip(A_dd, rr.A)):
        assert len(row_dd) == len(row) - i
        for entry, exact in zip(row_dd, row[i:]):
            assert _dd_error(entry, exact) <= Fraction(1, 10 ** 30) * abs(exact)


class TestKernelAgainstExact:
    """The O(n^2) kernel against ``rational_pipeline`` on the same doubles."""

    @pytest.mark.parametrize("ns", KERNEL_CASES)
    def test_n24(self, ns):
        rr = rational_pipeline(ns)
        n = ns.n
        A_dd, mom = _node_products_dd(ns.nodes), moments_dd(ns)
        try:
            fs = build_system(ns)
        except DegreeOverflowError:  # GL at n = 24: the fixed 1e-12 threshold
            pass
        else:
            A_dd = fs.A_dd
            assert bits(fs.leading_dd) == bits(mom[:fs.degree + 2])
        moments = [h + l for h, l in mom]
        assert len(A_dd) == n
        _assert_matrix_exact(A_dd, rr)
        assert len(moments) == 2 * n + 1
        for got, want in zip(moments, rr.moments):
            assert got == pytest.approx(float(want), rel=1e-13, abs=1e-25)

    @pytest.mark.parametrize("n,degree", [(16, 31), (20, 39)])
    def test_gauss_legendre_on_shifted_interval(self, n, degree):
        ns = q.generate(q.FamilySpec(q.Family.GAUSS_LEGENDRE, n), Interval(2.0, 4.0))
        assert build_system(ns).degree == degree

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.fractions(-8, 8, max_denominator=64),
        length=st.fractions(1, 4, max_denominator=64),
        us=st.lists(st.fractions(-Fraction(1, 4), Fraction(5, 4), max_denominator=1000),
                    min_size=1, max_size=8, unique=True),
    )
    def test_property_random_rational_nodes(self, a, length, us):
        iv = Interval(float(a), float(a + length))
        nodes = sorted({float(a + u * length) for u in us})
        ns = NodeSet(tuple(nodes), iv)
        rr = rational_pipeline(ns)
        _assert_matrix_exact(_node_products_dd(ns.nodes), rr)
        # Running-error scale of the centred recurrence: the same recurrence
        # on absolute values bounds every term that enters mu_j, and each
        # step adds at most a few units of 2^-106 relative to that bound.
        fa, fb = Fraction(iv.a), Fraction(iv.b)
        c = Fraction(0.5 * iv.a + 0.5 * iv.b)
        ua, ub = fa - c, fb - c
        scale = [(ub ** (m + 1) + (-ua) ** (m + 1)) / (m + 1) for m in range(2 * ns.n + 1)]
        mom = moments_dd(ns)
        assert _dd_error(mom[0], rr.moments[0]) <= Fraction(1, 2 ** 100) * scale[0]
        for j, t in enumerate(ns.nodes * 2, start=1):
            d = abs(Fraction(t) - c)
            scale = [scale[m + 1] + d * scale[m] for m in range(len(scale) - 1)]
            bound = (j + 1) * Fraction(1, 2 ** 100) * scale[0]
            assert _dd_error(mom[j], rr.moments[j]) <= bound


# -- the demand-driven moment scan ------------------------------------------

def _drained_scan(ns):
    """Degree detection on the whole profile mu_0..mu_2n, default threshold:
    ("ok", leading pairs, threshold, degree), or ("overflow", first index
    of a non-finite moment), or ("degree overflow",)."""
    full = moments_dd(ns)
    moments = [h + l for h, l in full]
    bad = next((j for j, m in enumerate(moments) if not math.isfinite(m)), None)
    if bad is not None:
        return ("overflow", bad)
    eps = q.system._default_eps_deg(moments[0])
    j = next((j for j in range(ns.n, 2 * ns.n + 1) if abs(moments[j]) > eps), None)
    if j is None:
        return ("degree overflow",)
    return ("ok", full[:j + 1], eps, j - 1)


def _exact_recurrence_max(ns):
    """max |x| over every value of the centred recurrence through mu_2n,
    M_j[m] for j + m <= 2n, its products (c - r_j) M_{j-1}[m] and its
    factors c - t_i, run in ``Fraction``s from the exact starts."""
    iv = ns.interval
    c = Fraction(0.5 * iv.a + 0.5 * iv.b)
    M = ref_centred_moments(iv.a, iv.b, 2 * ns.n + 1)
    factors = [c - Fraction(t) for t in ns.nodes] * 2
    top = max(map(abs, M + factors))
    for f in factors:
        products = [f * x for x in M[:-1]]
        M = [x + p for x, p in zip(M[1:], products)]
        top = max(top, *map(abs, products + M))
    return top


def _ceil_log2_exact(x):
    """The least integer k with x <= 2^k, for a Fraction x > 0."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    while x > Fraction(2) ** k:
        k += 1
    while x <= Fraction(2) ** (k - 1):
        k -= 1
    return k


def _scan_outcome(ns):
    try:
        fs = build_system(ns)
    except q.MomentOverflowError as exc:
        return ("overflow", int(str(exc).split()[1][len("mu_"):]))
    except DegreeOverflowError:
        return ("degree overflow",)
    return ("ok", fs.leading_dd, fs.eps_deg, fs.degree)


class TestLeadingMoments:
    """The system keeps mu_0..mu_Q, the moments it reads, and no more."""

    @pytest.mark.parametrize("family,n", family_cases(1, 20))
    def test_store_ends_at_mu_q(self, family, n):
        ns = nodeset(family, n)
        fs = build_system(ns)
        assert len(fs.leading_dd) == fs.degree + 2
        assert bits(fs.leading_dd) == bits(moments_dd(ns)[:fs.degree + 2])
        h, l = fs.leading_dd[-1]
        assert bits([fs.mu_Q]) == bits([h + l])
        assert bits(fs.c) == bits([h + l for h, l in fs.leading_dd[:n]])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (2.0, 4.0)], ids=["-1,1", "2,4"])
    def test_bound_allows_the_early_stop_up_to_n64(self, family, interval):
        # the sweep's rules all stop at mu_Q: on these intervals every value
        # of the recurrence is at most 2 (1 + 1)^128, far below the limit
        for n in range(MIN_N[family], 65):
            assert q.system._profile_stays_finite(
                q.generate(q.FamilySpec(family, n), Interval(*interval)))

    @pytest.mark.parametrize("family,n,interval", [
        (q.Family.GAUSS_LEGENDRE, 64, (0.0, 1000.0)),
        (q.Family.NEWTON_COTES, 40, (0.0, 1e8)),
    ])
    def test_overflowing_profiles_are_not_cut_short(self, family, n, interval):
        # both profiles overflow, GL-64 only at mu_110, after mu_64 has
        # passed the threshold: the bound must refuse the early stop, or
        # that failure would turn into a wrong degree
        ns = q.generate(q.FamilySpec(family, n), Interval(*interval))
        assert not q.system._profile_stays_finite(ns)
        assert _scan_outcome(ns) == _drained_scan(ns)
        assert _scan_outcome(ns)[0] == "overflow"

    @pytest.mark.parametrize("family,n,interval,index,wrong", [
        (q.Family.NEWTON_COTES, 57, (0.0, 1000.0), 111, "mu_Q"),
        (q.Family.NEWTON_COTES, 39, (-1e4, 1e4), 75, "degree"),
        (q.Family.FEJER1, 57, (0.0, 1000.0), 110, "mu_Q"),
        (q.Family.CLENSHAW_CURTIS, 61, (0.0, 1000.0), 110, "mu_Q"),
        (q.Family.GAUSS_LEGENDRE, 58, (0.0, 1000.0), 110, "mu_Q"),
        (q.Family.NEWTON_COTES, 59, (0.0, 1024.0), 110, "mu_Q"),
    ])
    def test_the_drain_guards_against_wrong_answers(self, family, n, interval, index, wrong):
        # why the scan runs on to mu_2n where the bound refuses the early
        # stop: on these rules every moment through the first one above
        # the threshold is finite, but stopping there would report what
        # the exact oracle refutes (mu_Q off by a factor of about 4 for
        # NC-57, and by 1.5 to 12 orders of magnitude for the other four;
        # degree 38 instead of 39 for NC-39), while the full scan fails,
        # typed, at its overflowing moment
        ns = q.generate(q.FamilySpec(family, n), Interval(*interval))
        with pytest.raises(q.MomentOverflowError, match=f"mu_{index} is not finite"):
            build_system(ns)
        scan = list(enumerate(h + l for h, l in _iter_moments_dd(ns)))
        eps = _default_eps_deg(scan[0][1])
        j, mu = next((j, mu) for j, mu in scan[n:] if abs(mu) > eps)
        assert all(math.isfinite(m) for _, m in scan[:j + 1])
        rr = rational_pipeline(ns)
        exact_mu = float(rr.mu_Q)
        if wrong == "degree":
            assert (j - 1, rr.degree) == (38, 39)
        else:
            assert j - 1 == rr.degree
            assert abs(mu - exact_mu) > 1e-8 * abs(exact_mu)

    @pytest.mark.parametrize("interval", [(0.0, 50.0), (0.0, 100.0)], ids=["0,50", "0,100"])
    def test_bound_allows_the_early_stop_on_shifted_intervals(self, interval):
        # on (0, 100) every value is at most 2 * 50 * 100^128 < 2^858, and
        # the test in exponents is 2 + 6 + 128 * 7 = 904 <= 996; the padded
        # product max(R0, 1)^(2n+1) (1 + R)^(2n) refused 84 of these rules
        for family in FAMILIES:
            for n in range(2, 65):
                assert q.system._profile_stays_finite(
                    q.generate(q.FamilySpec(family, n), Interval(*interval))), (family, n)

    @pytest.mark.parametrize("n", [5, 17, 33, 48, 64])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("interval", [(0.0, 1000.0), (0.0, 1e40), (-300.0, 300.0)],
                             ids=["0,1000", "0,1e40", "-300,300"])
    def test_early_stop_matches_a_drained_scan_on_wide_intervals(self, interval, family, n):
        ns = q.generate(q.FamilySpec(family, n), Interval(*interval))
        got, want = _scan_outcome(ns), _drained_scan(ns)
        if want[0] == "ok":
            got, want = (got[0], bits(got[1]), *got[2:]), (want[0], bits(want[1]), *want[2:])
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(log_half=st.floats(-20.0, 20.0),
           centre=st.floats(-2.0 ** 20, 2.0 ** 20),
           us=st.lists(st.fractions(-8, 9, max_denominator=1000), min_size=1, max_size=12,
                       unique=True))
    def test_exponent_bound_covers_the_exact_recurrence(self, log_half, centre, us):
        # with the limit at k, the least k with every exact value at most
        # 2^k (1 + 2^-40), the early stop must be refused: the exponent E of
        # the bound exceeds k, so 2^(E - 1), the bound without its spare
        # bit, is never below the exact values, up to the roundings of R0,
        # R and R0 + R
        half = 2.0 ** log_half
        iv = Interval(centre - half, centre + half)
        nodes = sorted({iv.a + float(u) * (iv.b - iv.a) for u in us})
        ns = NodeSet(tuple(nodes), iv)
        k = _ceil_log2_exact(_exact_recurrence_max(ns) / (1 + Fraction(1, 2 ** 40)))
        with mock.patch.object(q.system, "_SPLIT_EXPONENT", k):
            assert not q.system._profile_stays_finite(ns)

    def test_an_overflowing_spread_refuses(self):
        # R = 1.25e308 + 4.5e307 is a double, R0 + R = 2.5e307 + 1.7e308 is not
        ns = NodeSet((-4.5e307, 1.6e308), Interval(1e308, 1.5e308))
        assert not q.system._profile_stays_finite(ns)
        assert _scan_outcome(ns) == _drained_scan(ns)

    def test_nodes_far_outside_a_short_interval(self):
        # |c - t| alone beyond the split limit: the split of c - t itself
        # would give nan, so the bound must refuse however small the moments
        ns = NodeSet((-(2.0 ** 997), 2.0 ** 997), Interval(0.0, 2.0 ** -1000))
        assert not q.system._profile_stays_finite(ns)
        assert _scan_outcome(ns) == _drained_scan(ns)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           family=st.sampled_from(FAMILIES + ("rational",)),
           centre=st.floats(-1e4, 1e4, allow_nan=False),
           log_half=st.floats(-3.0, 4.0, allow_nan=False))
    def test_early_stop_matches_a_drained_scan(self, data, family, centre, log_half):
        half = 10.0 ** log_half
        iv = Interval(centre - half, centre + half)
        if family == "rational":
            n = data.draw(st.integers(1, 64), label="n")
            us = data.draw(st.lists(st.fractions(-Fraction(1, 4), Fraction(5, 4),
                                                 max_denominator=1000),
                                    min_size=n, max_size=n, unique=True), label="us")
            nodes = sorted({float(iv.a + float(u) * (iv.b - iv.a)) for u in us})
            ns = NodeSet(tuple(nodes), iv)
        else:
            n = data.draw(st.integers(MIN_N[family], 64), label="n")
            ns = q.generate(q.FamilySpec(family, n), iv)
        want = _drained_scan(ns)
        if q.system._profile_stays_finite(ns):
            assert all(math.isfinite(h) and math.isfinite(l) for h, l in moments_dd(ns))
            assert want[0] != "overflow"
        got = _scan_outcome(ns)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert bits(got[1]) == bits(want[1])
            assert got[2:] == want[2:]
        else:
            assert got == want

