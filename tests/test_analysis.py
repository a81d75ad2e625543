import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlsq as q
from quadlsq import (
    NodeSet,
    bounds_omega_gamma,
    build_report,
    build_system,
    cond_inf_upper,
    error_coefficient,
    norm_params,
    rational_pipeline,
    rule_angle,
    solve_rule,
)
from quadlsq.analysis import _exactly_parallel, _norm_inf_inverse

from helpers import (
    FAMILIES,
    MIN_N,
    asymmetric_rational_nodes,
    bits,
    closed_form_inverse,
    exact_angle,
    exact_cond_inf,
    exact_vector_angle,
    family_cases,
    nodeset,
    solved,
)

SIMPSON_OMEGA = np.array([1 / 3, 4 / 3, 1 / 3])


#: Entries below 1 in magnitude, with subnormals and signed zeros weighted up
_ENTRY = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.0 ** -1000]),
)


@st.composite
def _vector_pairs(draw):
    """(x, y) with x nonzero and y equal to x, x scaled by a power of two
    (inexact where it underflows), x times an entry, or drawn freely."""
    x = np.array(draw(st.lists(_ENTRY, min_size=1, max_size=6).filter(any)))
    how = draw(st.sampled_from(["same", "pow2", "scaled", "free"]))
    if how == "same":
        return x, x.copy()
    if how == "pow2":
        return x, np.ldexp(x, -draw(st.integers(0, 80)))
    if how == "scaled":
        return x, x * draw(_ENTRY)
    return x, np.array(draw(st.lists(_ENTRY, min_size=len(x), max_size=len(x))))


class TestRuleAngle:
    def test_collinear_is_zero(self):
        assert rule_angle(SIMPSON_OMEGA, SIMPSON_OMEGA) == 0.0

    def test_printed_simpson_example(self):
        # against the printed (inconsistent) minimax vector [1/5, 4/3, 1/5]:
        # arccos(43 / (3 sqrt(209))) ~ 7.5 degrees
        ang = rule_angle(SIMPSON_OMEGA, [0.2, 4 / 3, 0.2])
        closed_form = math.degrees(math.acos(43.0 / (3.0 * math.sqrt(209.0))))
        assert ang == pytest.approx(closed_form, rel=1e-12)
        assert ang == pytest.approx(7.4945, abs=5e-4)

    def test_derived_simpson_angle(self):
        # with z* = omega + tau = [7/15, 4/3, 7/15]:
        # arccos(47 / (3 sqrt(249))) ~ 6.863 degrees
        fs = build_system(NodeSet((-1.0, 0.0, 1.0)))
        sol = solve_rule(fs)
        ang = rule_angle(sol.omega, sol.z_star)
        closed_form = math.degrees(math.acos(47.0 / (3.0 * math.sqrt(249.0))))
        assert ang == pytest.approx(closed_form, rel=1e-12)
        assert ang == pytest.approx(6.8630, abs=5e-4)

    def test_radians(self):
        ang = rule_angle([1.0, 0.0], [1.0, 1.0], degrees=False)
        assert ang == pytest.approx(math.pi / 4, rel=1e-14)

    def test_scale_invariance(self):
        a = np.array([0.3, 1.1, 0.4])
        b = np.array([0.5, 0.9, 0.8])
        ref = rule_angle(a, b)
        assert rule_angle(4.0 * a, b) == ref
        assert rule_angle(a, 0.25 * b) == ref
        assert rule_angle(3.7 * a, 1.9 * b) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("family,n", [(q.Family.NEWTON_COTES, 3), (q.Family.FEJER1, 9),
                                          (q.Family.CLENSHAW_CURTIS, 17),
                                          (q.Family.GAUSS_LEGENDRE, 12)])
    def test_scaling_by_powers_of_two_is_exact(self, family, n):
        # each vector scaled by its own 2^k, for every k that keeps its
        # components normal doubles: the same angle, bit for bit, and no
        # overflow in the norms
        _, _, sol = solved(family, n)
        ref = rule_angle(sol.omega, sol.z_star)

        def k_range(x):
            exps = [math.frexp(v)[1] for v in np.abs(x) if v != 0.0]
            return range(-1021 - min(exps), 1024 - max(exps) + 1, 11)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in k_range(sol.omega):
                for j in (k, -k, 0):
                    if j in k_range(sol.z_star):
                        got = rule_angle(np.ldexp(sol.omega, k), np.ldexp(sol.z_star, j))
                        assert got == ref, (k, j)

    def test_antiparallel_is_zero(self):
        # opposite directions fold together, and the half-angle form
        # resolves the difference of two unit vectors down to its last bit
        assert rule_angle([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("omega,z_star", [
        ([1.0, 1.0], [1.6666666666666665, 1.6666666666666665]),  # NC and CC at n = 2
        ([1.0, 5.0, 0.0, 7.0], [3.0, 15.0, 0.0, 21.0]),
        ([1.0, -5.0, 7.0], [-3.0, 15.0, -21.0]),
    ], ids=["nc2", "ints", "opposite"])
    def test_exactly_parallel_is_exactly_zero(self, omega, z_star):
        # the unit vectors of exactly parallel vectors may round apart
        assert rule_angle(omega, z_star) == 0.0

    @pytest.mark.parametrize("family", [q.Family.NEWTON_COTES, q.Family.CLENSHAW_CURTIS],
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (2.0, 4.0)])
    def test_two_node_reports_have_angle_zero(self, family, interval):
        # omega = (1, 1) and z* = (5/3, 5/3) rounded: exactly parallel
        ns = q.generate(q.FamilySpec(family, 2), q.Interval(*interval))
        assert q.build_report(ns).angle_deg == 0.0

    def test_nearly_parallel_keeps_the_kahan_angle(self):
        # 3 fl(1/3) != 1: not exactly parallel
        assert not _exactly_parallel(np.array([0.25, 0.75]), np.array([1 / 3, 1.0]) / 2)
        assert rule_angle([1.0, 3.0], [1 / 3, 1.0]) > 0.0

    def test_underflowing_products_get_the_exact_answer(self):
        # 2^-1 2^-1000 underflows a two-product, not the exact integer one
        x = np.array([0.5, 2.0 ** -1000])
        assert _exactly_parallel(x, x)
        x = np.array([0.5, 2.0 ** -900])
        assert _exactly_parallel(x, x)
        # 0.5 * 2^-1074 rounds to 0, which is not the exact zero 0.5 * 0
        assert not _exactly_parallel(np.array([0.5, 2.0 ** -1074]), np.array([0.5, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(xy=_vector_pairs())
    def test_exactly_parallel_equals_the_fraction_cross_products(self, xy):
        # every 2 x 2 minor x_i y_j - x_j y_i is exactly zero
        x, y = xy
        X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        want = all(X[i] * Y[j] == X[j] * Y[i] for i in range(len(X)) for j in range(i))
        assert _exactly_parallel(x, y) == want

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_matches_the_exact_angle_of_the_same_vectors(self, family):
        # against sin^2 or cos^2 of the same double vectors as Fractions;
        # arccos of a cosine near 1 was off by up to 1.8e-3 (GL n = 20),
        # the half-angle form stays below 1e-10 on all four families
        for n in range(max(2, MIN_N[family]), 65):
            try:
                _, _, sol = solved(family, n)
            except q.NumericalFailure:
                continue
            want = exact_vector_angle(sol.omega, sol.z_star)
            got = rule_angle(sol.omega, sol.z_star)
            assert got == pytest.approx(want, rel=1e-9), n

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            rule_angle([0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_vector_rejected(self, bad):
        # an inf or nan entry leaves no unit vector: a ValueError, not nan,
        # and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, v in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [bad, 1.0])):
                with pytest.raises(ValueError, match="non-finite entry"):
                    rule_angle(u, v)

    def test_range(self):
        for family, n in family_cases(1, 10):
            _, _, sol = solved(family, n)
            assert 0.0 <= rule_angle(sol.omega, sol.z_star) <= 90.0

    @pytest.mark.parametrize("u,v", [([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0])])
    def test_vectors_of_two_lengths_rejected(self, u, v):
        with pytest.raises(ValueError, match=f"expected a vector of length {len(u)}, "
                                             f"got {len(v)}"):
            rule_angle(u, v)


class TestNormParams:
    def test_simpson(self):
        n_omega, _ = norm_params(SIMPSON_OMEGA, SIMPSON_OMEGA)
        assert n_omega == pytest.approx(2.0, rel=1e-15)

    def test_gl2(self):
        assert norm_params([1.0, 1.0], [1.0, 1.0])[0] == 2.0

    def test_midpoint_z(self):
        assert norm_params([2.0], [8 / 3])[1] == pytest.approx(8 / 3, rel=1e-15)

    def test_negative_weights_counted_in_magnitude(self):
        assert norm_params([-1.0, 2.0], [0.0, 0.0])[0] == 3.0

    @pytest.mark.parametrize("z_star", [[1.0, 2.0, 3.0], [1.0], []])
    def test_vectors_of_two_lengths_rejected(self, z_star):
        # a z* of another length than omega is no pair of solutions
        with pytest.raises(ValueError, match=f"expected a vector of length 2, "
                                             f"got {len(z_star)}"):
            norm_params([1.0, 2.0], z_star)


class TestErrorCoefficient:
    def test_cc_17_printed_value(self):
        assert error_coefficient(1.26e-8, 17) == pytest.approx(1.97e-24, rel=5e-3)

    def test_gl_17_printed_value(self):
        assert error_coefficient(1.80e-10, 33) == pytest.approx(6.11e-49, rel=5e-3)

    def test_zero_moment(self):
        assert error_coefficient(0.0, 5) == 0.0

    def test_small_factorial_branch_is_exact(self):
        assert error_coefficient(-4.0 / 15.0, 3) == (-4.0 / 15.0) / 24.0

    def test_lgamma_branch_matches_factorial(self):
        # degree 25 is above the cutover; 26! is still exact in Python ints
        assert error_coefficient(0.5, 25) == pytest.approx(0.5 / math.factorial(26), rel=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            error_coefficient(1.0, -1)

    @pytest.mark.parametrize("mu_Q", [math.inf, -math.inf, math.nan])
    def test_non_finite_moment_rejected(self, mu_Q):
        with pytest.raises(ValueError, match="finite mu_Q"):
            error_coefficient(mu_Q, 3)

    @pytest.mark.parametrize("mu_Q", [-4 / 15, 1.80e-10, 0.1, -1e-300, 5e-324, 1.7976931348623157e308])
    def test_correctly_rounded_for_every_degree(self, mu_Q):
        # the exact quotient rounded once, also where it is subnormal or
        # underflows to zero; log-gamma was off by up to 1.3e-13 relative
        got = [error_coefficient(mu_Q, d) for d in range(201)]
        want = [float(Fraction(mu_Q) / math.factorial(d + 1)) for d in range(201)]
        assert got == want
        if abs(mu_Q) < 1e-200:
            assert want[-1] == 0.0 and any(0.0 < abs(v) < 2.2250738585072014e-308 for v in want)


class TestBounds:
    @pytest.mark.parametrize("k", [4, 1, 6])
    def test_vectors_of_another_length_rejected(self, k):
        # NC n = 5: the vectors broadcast against each other, and |A| does
        # not read them, so without the check the bounds came out finite
        _, fs, sol = solved(q.Family.NEWTON_COTES, 5)
        short = sol.omega[:k] if k < 5 else np.resize(sol.omega, k)
        for omega, z_star in ((short, short), (short, sol.z_star), (sol.omega, short)):
            with pytest.raises(ValueError, match=f"expected a vector of length 5, got {k}"):
                bounds_omega_gamma(fs, omega, z_star)

    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), ()])
    def test_vectors_of_another_shape_rejected(self, shape):
        # a (5, 1) omega broadcast against z* to a 5 x 5 difference
        _, fs, sol = solved(q.Family.NEWTON_COTES, 5)
        bad = np.resize(sol.omega, shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            bounds_omega_gamma(fs, bad, sol.z_star)
        for u, v in ((sol.omega, bad), (bad, sol.z_star)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                norm_params(u, v)
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                rule_angle(u, v)

    def test_simpson_hand_values(self):
        fs = build_system(NodeSet((-1.0, 0.0, 1.0)))
        sol = solve_rule(fs)
        omega_bound, gamma, cond = bounds_omega_gamma(fs, sol.omega, sol.z_star)
        assert omega_bound == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
        assert gamma == pytest.approx(1.5, rel=1e-12)
        assert cond == pytest.approx(7.5, rel=1e-12)
        assert abs(fs.mu_Q) <= omega_bound

    def test_midpoint_attains_lower_bound(self):
        fs = build_system(NodeSet((0.0,)))
        sol = solve_rule(fs)
        _, gamma, cond = bounds_omega_gamma(fs, sol.omega, sol.z_star)
        assert cond == pytest.approx(1.0, rel=1e-15)
        assert gamma == pytest.approx(1.0, rel=1e-12)

    def test_cond_inf_simpson_exact(self):
        # ||A||_inf = 3 (row 1 1 1), ||A^-1||_inf = 5/2 (row 1 -1 1/2)
        assert cond_inf_upper(build_system(NodeSet((-1.0, 0.0, 1.0)))) == 7.5

    @pytest.mark.parametrize("family,n", family_cases(2, 12))
    def test_bound_chain(self, family, n):
        _, fs, sol = solved(family, n)
        omega_bound, gamma, cond = bounds_omega_gamma(fs, sol.omega, sol.z_star)
        assert abs(fs.mu_Q) <= omega_bound + 1e-12
        assert 1.0 - 1e-10 <= gamma <= cond * (1.0 + 1e-10)


#: node counts of the cond_inf accuracy check: dense up to 24, then sparse
#: to the sweep limit (the exact reference costs O(n^2) big rationals)
COND_NS = tuple(range(2, 25)) + (32, 40, 48, 56, 64)

INVERSE_CASES = [
    pytest.param(nodeset(fam, n), None, id=f"{fam.value}-{n}")
    for fam, n in family_cases(1, 16)
] + [
    pytest.param(asymmetric_rational_nodes(seed), (Fraction(0), Fraction(2)),
                 id=f"rational-0-2-seed{seed}")
    for seed in (1, 2, 3)
]

COND_CASES = [
    pytest.param(nodeset(fam, n), id=f"{fam.value}-{n}")
    for fam in FAMILIES for n in COND_NS
] + [
    pytest.param(q.generate(q.FamilySpec(q.Family.GAUSS_LEGENDRE, n), q.Interval(2.0, 4.0)),
                 id=f"gauss_legendre-{n}-(2,4)")
    for n in COND_NS
]


class TestCondInf:
    @pytest.mark.parametrize("nodes,interval", INVERSE_CASES)
    def test_closed_form_inverse_is_exact(self, nodes, interval):
        rr = rational_pipeline(nodes) if interval is None else rational_pipeline(nodes, interval)
        n, A = len(rr.nodes), rr.A
        inv = closed_form_inverse(rr.nodes)
        for k in range(n):
            assert not any(inv[k][:k]) and not any(A[k][:k])  # both upper-triangular
            for j in range(k, n):
                entry = sum((inv[k][i] * A[i][j] for i in range(k, j + 1)), Fraction(0))
                assert entry == (1 if j == k else 0), (k, j)
        norm_a = max(sum(abs(v) for v in row) for row in A)
        norm_inv = max(sum(abs(v) for v in row) for row in inv)
        assert norm_a * norm_inv == exact_cond_inf(rr.nodes)

    @pytest.mark.parametrize("ns", COND_CASES)
    def test_within_rounding_bound_of_exact(self, ns):
        """|cond_inf_upper(fs) - cond| <= (4n+1) u cond, u = 2^-53.

        To first order in u: each node difference t_k - t_m is one
        rounding, the running product of at most n-1 differences adds at
        most n-2 and the reciprocal one, so each term of a row sum of
        |A^-1| is within (2n-2) u; summing at most n positive terms adds
        (n-1) u, so ||A^-1||_inf is within (3n-3) u.  Each double entry of
        A is its double-double value rounded once, within u of the exact
        entry (the double-double error is O(n u^2)), and a row sum of n
        nonnegative terms adds (n-1) u, so ||A||_inf is within n u.  The
        final product adds u: (3n-3) + n + 1 = 4n - 2, and the (4n+1) u
        bound leaves 3u for the second-order terms.  The maxima over rows
        keep these relative bounds.
        """
        fs = build_system(ns, eps_deg=0.0)
        exact = exact_cond_inf(ns.nodes)
        err = abs(Fraction(cond_inf_upper(fs)) - exact)
        assert err <= (4 * fs.n + 1) * Fraction(1, 2 ** 53) * exact

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bounds_read_the_one_formula(self, family):
        # cond_inf_A of bounds_omega_gamma is cond_inf_upper, bit for bit
        # the product ||A||_inf ||A^-1||_inf of the row sums of |A|, each
        # correctly rounded (math.fsum), as the package forms them
        for n in range(2, 65):
            fs = build_system(nodeset(family, n), eps_deg=0.0)
            zero = np.zeros(n)
            norm_ainf = max(math.fsum(map(abs, row)) for row in fs.A.tolist())
            product = norm_ainf * _norm_inf_inverse(fs.nodes.nodes)
            cond = bounds_omega_gamma(fs, zero, zero)[2]
            assert bits([cond]) == bits([cond_inf_upper(fs)]) == bits([product]), n

    def test_underflowing_products_give_inf_without_warnings(self):
        # 40 nodes 1e-10 apart: the products of node differences underflow,
        # so the diagonal of A and the denominators of A^-1 are 0
        fs = build_system(NodeSet(tuple(i * 1e-10 for i in range(40))), eps_deg=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cond_inf_upper(fs) == math.inf


class TestFamilyShapes:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_gl_norm_parameter_is_two(self, n):
        _, _, sol = solved(q.Family.GAUSS_LEGENDRE, n)
        assert np.all(sol.omega > 0)
        assert np.sum(np.abs(sol.omega)) == pytest.approx(2.0, rel=1e-12)

    def test_nc_norms_grow_within_parity_classes(self):
        # closed Newton-Cotes norms oscillate between even and odd counts;
        # each parity subsequence grows steeply once negative weights appear
        norms = {}
        for n in range(9, 16):
            _, _, sol = solved(q.Family.NEWTON_COTES, n)
            norms[n] = float(np.sum(np.abs(sol.omega)))
        assert norms[11] < norms[13] < norms[15]
        assert norms[10] < norms[12] < norms[14]
        assert norms[15] > 10.0
        assert norms[15] > norms[11]

    def test_nc_negative_weights(self):
        # negative weights first appear at 9 points; the 10-point rule is
        # briefly all-positive again, then negatives persist from 11 on
        for n in (9, 11, 12, 13):
            _, _, sol = solved(q.Family.NEWTON_COTES, n)
            assert np.min(sol.omega) < 0.0
        _, _, sol10 = solved(q.Family.NEWTON_COTES, 10)
        assert np.min(sol10.omega) > 0.0


class TestBuildReport:
    def test_simpson_report(self):
        rep = build_report(NodeSet((-1.0, 0.0, 1.0)), family="simpson")
        assert rep.n == 3
        assert rep.degree == 3
        assert rep.mu_Q == pytest.approx(-4 / 15, abs=1e-16)
        assert rep.N_omega == pytest.approx(2.0, rel=1e-15)
        assert rep.N_z == pytest.approx(7 / 15 * 2 + 4 / 3, rel=1e-14)
        assert rep.tau_inf == pytest.approx(2 / 15, abs=1e-16)
        assert rep.angle_deg == pytest.approx(6.8630, abs=5e-4)
        assert rep.alpha == rep.c_n == pytest.approx((-4 / 15) / 24.0, rel=1e-15)
        assert rep.Gamma == pytest.approx(1.5, rel=1e-12)
        assert rep.epsilon == pytest.approx(4 / 15, rel=1e-13)
        for key in ("r_omega_1", "r_omega_2", "r_omega_3", "r_omega_inf", "r_z_inf"):
            assert getattr(rep, key) == pytest.approx(4 / 15, rel=1e-12)

    def test_wide_interval_report(self):
        # on (0, 1e40) ||r||_2^2 (~1e395) and the norms of omega and z*
        # (~1e40 and ~1e198, squared inside a 2-norm) overflow unscaled
        ns = q.generate(q.FamilySpec(q.Family.NEWTON_COTES, 3), q.Interval(0.0, 1e40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = build_report(ns)
        assert abs(rep.epsilon - abs(rep.mu_Q)) <= (
            q.minimax.EPS_CHECK_RTOL * abs(rep.mu_Q))
        degree, angle = exact_angle(ns)
        assert rep.degree == degree == 3
        assert rep.angle_deg == pytest.approx(angle, rel=1e-12)

    def test_fs_of_other_nodes_rejected(self):
        # n = 5 and degree 9 were reported for the three Simpson nodes
        gl5 = q.generate(q.FamilySpec(q.Family.GAUSS_LEGENDRE, 5))
        with pytest.raises(ValueError, match="other nodes"):
            build_report(NodeSet((-1.0, 0.0, 1.0)), fs=build_system(gl5))
        other_interval = NodeSet((-1.0, 0.0, 1.0), q.Interval(-1.0, 2.0))
        with pytest.raises(ValueError, match="other nodes"):
            build_report(NodeSet((-1.0, 0.0, 1.0)), fs=build_system(other_interval))

    def test_solution_without_its_fs_rejected(self):
        # fs was rebuilt from ns and never checked against the solution:
        # CC-5's weights on the NC-5 nodes failed the epsilon self-check
        nc5 = q.generate(q.FamilySpec(q.Family.NEWTON_COTES, 5))
        cc5 = solve_rule(build_system(q.generate(q.FamilySpec(q.Family.CLENSHAW_CURTIS, 5))))
        with pytest.raises(ValueError, match="a solution needs the fs it solves"):
            build_report(nc5, solution=cc5)
        fs = build_system(nc5)
        assert build_report(nc5, fs=fs, solution=solve_rule(fs)).degree == 5

    def test_eps_deg_contradicting_fs_rejected(self):
        # eps_deg = 1.0 on its own overflows; with fs it was ignored
        simpson = NodeSet((-1.0, 0.0, 1.0))
        with pytest.raises(q.DegreeOverflowError):
            build_report(simpson, eps_deg=1.0)
        with pytest.raises(ValueError, match="eps_deg"):
            build_report(simpson, eps_deg=1.0, fs=build_system(simpson))
        with pytest.raises(ValueError, match="eps_deg"):
            build_report(simpson, eps_deg=math.nan, fs=build_system(simpson))

    def test_consistent_fs_accepted(self):
        fs = build_system(NodeSet((-1.0, 0.0, 1.0)), eps_deg=1e-10)
        rep = build_report(NodeSet((-1.0, 0.0, 1.0)), eps_deg=1e-10, fs=fs)
        assert (rep.n, rep.degree) == (3, 3)
        assert build_report(fs.nodes, fs=fs).degree == 3

    def test_epsilon_is_checked_before_the_rest_of_the_report(self, monkeypatch):
        # NC-57 fails the self-check (as NC 57..64 of every sweep do): the
        # report must stop at the check, before r(z*), the norms, the
        # bounds or the angle are formed (r(z*) shares ``_residual`` with
        # r(omega); ``_unscaled``, which forms the norms, runs before it)
        ns = q.generate(q.FamilySpec(q.Family.NEWTON_COTES, 57))
        with pytest.raises(q.SelfCheckError) as unpatched:
            build_report(ns)

        def formed(*args, **kwargs):
            raise AssertionError("formed after a failed epsilon self-check")

        for name in ("_unscaled", "norm_params", "error_coefficient",
                     "bounds_omega_gamma", "rule_angle"):
            monkeypatch.setattr(q.analysis, name, formed)
        with pytest.raises(q.SelfCheckError, match="epsilon self-check") as patched:
            build_report(ns)
        assert str(patched.value) == str(unpatched.value)

    @pytest.mark.parametrize("member", list(q.Family))
    def test_a_family_member_labels_the_report_with_its_value(self, member):
        # str() of a str-mixin Enum member was its name, 'Family.NEWTON_COTES'
        assert str(member) == f"{member}" == member.value
        rep = build_report(NodeSet((-1.0, 0.0, 1.0)), family=member)
        assert rep.family == member.value and type(rep.family) is str

    def test_report_is_frozen(self):
        rep = build_report(NodeSet((-1.0, 0.0, 1.0)))
        with pytest.raises(AttributeError):
            rep.mu_Q = 0.0
        with pytest.raises(AttributeError):
            rep.epsilon = 0.0

    def test_fejer3_report(self):
        rep = build_report(NodeSet(tuple(q.fejer1_nodes(3))), family="fejer1")
        assert rep.degree == 3
        assert rep.mu_Q == pytest.approx(-0.1, abs=1e-14)

    def test_derived_table_angles(self):
        # the angles of the 17-node cosine families, pinned as derived
        # regressions (the printed table values for these two cells are
        # irreproducible from the defining equations)
        rep_f = build_report(NodeSet(tuple(q.fejer1_nodes(17))), family="fejer1")
        assert rep_f.angle_deg == pytest.approx(0.071085, rel=1e-4)
        rep_cc = build_report(NodeSet(tuple(q.clenshaw_curtis_nodes(18))), family="cc")
        assert rep_cc.angle_deg == pytest.approx(0.0129207, rel=1e-4)


U = 2.0 ** -53


def _gamma(k):
    """gamma_k = k u / (1 - k u): the relative error bound of a sum of k + 1
    terms of one sign in any order (Higham, 2nd ed., sec. 4.2)."""
    return k * U / (1 - k * U)


#: Finite doubles of every size the reductions scale: huge, tiny, subnormal
_WIDE_ENTRY = st.one_of(
    st.floats(-2.0 ** 1000, 2.0 ** 1000),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1022, 2.0 ** 1000, 1e300]),
)
_WIDE_VECTORS = st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.lists(_WIDE_ENTRY, min_size=n, max_size=n),
                        st.lists(_WIDE_ENTRY, min_size=n, max_size=n)))


def _pow2(x):
    """x as an array divided by the power of two of max |x|, and that exponent."""
    x = np.asarray(x, dtype=float)
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -e), e


class TestStdlibReductions:
    """The reductions on Python floats against numpy's, on the same scaled
    terms, within the gap that their summation error bounds allow.

    ``math.fsum`` rounds a sum once (within u of it); numpy's sum, in any
    order, is within gamma_{n-1} of a sum of terms of one sign.  So a sum
    of the same n nonnegative terms differs by at most (u + gamma_{n-1})
    of it.  The entries stay below 2^1000, so with n <= 64 no sum leaves
    the double range.
    """

    @settings(max_examples=100, deadline=None)
    @given(xy=_WIDE_VECTORS)
    def test_residual_norms_agree_with_numpy(self, xy):
        x = xy[0]
        got = q.residual_norms(x)
        s, e = _pow2(np.abs(x))
        n = len(x)
        ref = {1: np.sum(s), 2: math.sqrt(np.sum(s * s)),
               3: np.sum(s ** 3) ** (1.0 / 3.0), math.inf: np.max(s)}
        # p = 1: the same terms, so (u + gamma_{n-1}).  p = 2: the same
        # squares; the square root halves the sum's gap and each side adds
        # its rounding, u.  p = 3: each side's cube is within 2u (two
        # products or a libm pow below 1 ulp), so the sums differ by
        # 5u + gamma_{n-1}; the cube root divides that by 3 and adds a libm
        # pow per side, 2u each.  All below gamma_{n-1} + 8u; subnormal
        # terms add at most 2n 2^-1074 to sums of at least 1/8, far below u.
        # The max norm is exact on both sides.  The gaps are relative to
        # the exact norm, so to numpy's within 1 / (1 - gamma_{n-1}), and
        # scaling back to a subnormal norm may round each side once more.
        bound = {1: U + _gamma(n - 1), 2: (U + _gamma(n - 1)) / 2 + 2 * U,
                 3: _gamma(n - 1) + 8 * U, math.inf: 0.0}
        for p, value in ref.items():
            want = math.ldexp(float(value), e)
            gap = bound[p] * want / (1 - _gamma(n - 1)) + 2.0 ** -1074
            assert abs(got[p] - want) <= gap, (p, got[p], want)

    @settings(max_examples=100, deadline=None)
    @given(xy=_WIDE_VECTORS)
    def test_norm_params_agree_with_numpy(self, xy):
        x, y = xy
        n = len(x)
        for got, vector in zip(norm_params(x, y), (x, y)):
            want = float(np.sum(np.abs(vector)))
            assert abs(got - want) <= (U + _gamma(n - 1)) * want / (1 - _gamma(n - 1))

    @settings(max_examples=100, deadline=None)
    @given(xy=_WIDE_VECTORS)
    def test_rule_angle_agrees_with_numpy(self, xy):
        x, y = xy
        if not (any(x) and any(y)):
            return
        n = len(x)
        (sx, _), (sy, _) = _pow2(x), _pow2(y)
        u, v = sx / np.linalg.norm(sx), sy / np.linalg.norm(sy)
        if np.dot(u, v) < 0.0:
            v = -v
        want = 2.0 * math.atan2(np.linalg.norm(u - v), np.linalg.norm(u + v))
        got = rule_angle(x, y, degrees=False)
        # Each unit vector is within eta = 3u + gamma_n / 2 of the exact one
        # (a 2-norm within 2u by math.hypot or gamma_n / 2 + u by numpy's
        # dot, then a division).  a = ||u - v|| and b = ||u + v|| are then
        # within 2 eta + 4u + gamma_n each, and with a^2 + b^2 = 4 the angle
        # 2 atan2(a, b) moves by at most |da| + |db|, plus its own rounding,
        # under 2u theta <= pi u.  Two sides: 8 eta + 16u + 4 gamma_n + 2 pi u
        # < 48u + 8 gamma_n radians.  A dot product within its error of 0
        # may flip v on one side only, at an angle within that error of
        # pi/2, which the same bound covers.
        assert abs(got - want) <= 48 * U + 8 * _gamma(n)


class TestNonFiniteOutcomes:
    """Where the numpy reductions gave inf, nan or a typed error, the
    stdlib ones give the same, without a warning or a bare exception."""

    def test_underflowing_products_give_inf_bounds(self):
        # 40 nodes 1e-10 apart: the products of node differences underflow
        fs = build_system(NodeSet(tuple(i * 1e-10 for i in range(40))), eps_deg=0.0)
        zero = [0.0] * fs.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bounds_omega_gamma(fs, zero, zero)[2] == math.inf
            assert cond_inf_upper(fs) == math.inf

    def test_wide_interval_report_is_finite(self):
        # |mu_Q| = 2.7e199: the squared and cubed residuals overflow unscaled
        ns = q.generate(q.FamilySpec(q.Family.NEWTON_COTES, 3), q.Interval(-1e40, 1e40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = build_report(ns)
        values = [v for v in vars(rep).values() if isinstance(v, float)]
        assert all(map(math.isfinite, values))
        assert rep.r_omega_3 == pytest.approx(abs(rep.mu_Q), rel=1e-12)

    def test_nan_weights_fail_the_self_check(self):
        # nodes 0, 1e-155, 2e-155: the weights are nan, so eps is nan
        ns = NodeSet((0.0, 1e-155, 2e-155))
        fs = build_system(ns)
        sol = solve_rule(fs)
        assert all(map(math.isnan, sol.omega))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(q.SelfCheckError, match="= nan but"):
                build_report(ns)
            with pytest.raises(q.SelfCheckError, match="= nan but"):
                q.epsilon_check(fs, sol)

    @pytest.mark.parametrize("nodes", [(1e-320, 2e-320), (-1e-310, 1e-310),
                                       (1.3815902728336146e-300, 1.5214422824422244e-300)])
    def test_non_finite_tau_is_a_singular_diagonal(self, nodes):
        # |mu_Q| / A_22 passes 2^996, where the double-double division gives
        # nan; omega is finite and passes the self-check, and the report
        # names the row instead of failing in the angle with a ValueError
        ns = NodeSet(nodes)
        sol = solve_rule(build_system(ns))
        assert all(map(math.isfinite, sol.omega)) and not any(map(math.isfinite, sol.tau))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(q.SingularDiagonalError, match="tau is not finite from row 2"):
                build_report(ns)

    @pytest.mark.parametrize("bad,want", [(math.nan, math.nan), (math.inf, math.inf),
                                          (-math.inf, math.inf)])
    def test_residual_norms_of_non_finite_entries(self, bad, want):
        for r in ([bad, 1.0, 3.0], [1.0, 3.0, bad], [1e300, bad, -1e300]):
            norms = q.residual_norms(r)
            assert all(v == want or math.isnan(v) and math.isnan(want)
                       for v in norms.values()), (r, norms)

    @pytest.mark.parametrize("vector", [[1.7e308, 1.7e308], [1e308] * 3])
    def test_sums_beyond_the_double_range_are_inf(self, vector):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm_params(vector, vector) == (math.inf, math.inf)
            assert q.residual_norms(vector)[1] == math.inf
            # a nan among them stays nan, as numpy's sum gives it
            n_omega, n_z = norm_params([*vector, math.nan], [*vector, 1.0])
            assert math.isnan(n_omega) and n_z == math.inf

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_is_a_value_error(self, bad):
        for u, v in (([1e308, bad, 1e308], [1.0, 1.0, 1.0]), ([1.0, 1.0], [bad, 1e-300])):
            with pytest.raises(ValueError, match="non-finite entry"):
                rule_angle(u, v)
