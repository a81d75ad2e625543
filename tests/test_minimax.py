import math
from types import SimpleNamespace

import numpy as np
import pytest

import quadlsq as q
from quadlsq import (
    NodeSet,
    SelfCheckError,
    build_system,
    epsilon_check,
    equioscillation_residual,
    residual,
    residual_norms,
    solve_rule,
)

from quadlsq.analysis import _epsilon, _scaled_norms

from helpers import family_cases, solved

SIMPSON = NodeSet((-1.0, 0.0, 1.0))


class TestSolveTau:
    def test_simpson(self):
        tau = solve_rule(build_system(SIMPSON)).tau
        np.testing.assert_allclose(tau, [2 / 15, 0.0, 2 / 15], rtol=0, atol=1e-16)

    def test_midpoint(self):
        tau = solve_rule(build_system(NodeSet((0.0,)))).tau
        np.testing.assert_allclose(tau, [2 / 3], rtol=0, atol=1e-16)

    def test_scaling_linearity(self):
        # scaling the right-hand side by a power of two scales tau exactly
        from quadlsq.ddouble import DD
        from quadlsq.system import _back_substitute

        fs = build_system(NodeSet((-1.0, -0.25, 0.5, 1.0)))
        rows = fs.A_dd
        mu = abs(DD(*fs.leading_dd[-1]))
        t1, t4 = _back_substitute(rows, [mu] * fs.n, [mu * 4.0] * fs.n)
        assert [float(DD(*x)) * 4.0 for x in t1] == [float(DD(*x)) for x in t4]


class TestMinimaxSolution:
    def test_simpson_derived_value(self):
        # omega + tau = [7/15, 4/3, 7/15]; the source example prints
        # [3/15, 4/3, 3/15], which contradicts its own tau and fails the
        # defining equation below, so the derived value is the one tested
        z = solve_rule(build_system(SIMPSON)).z_star
        np.testing.assert_allclose(z, [7 / 15, 4 / 3, 7 / 15], rtol=0, atol=1e-15)

    def test_defining_equation(self):
        # A z* - |mu_Q| v = c
        for family, n in family_cases(1, 9):
            _, fs, sol = solved(family, n)
            lhs = fs.A @ sol.z_star - abs(fs.mu_Q)
            np.testing.assert_allclose(lhs, fs.c, rtol=1e-12, atol=1e-13)

    def test_midpoint(self):
        z = solve_rule(build_system(NodeSet((0.0,)))).z_star
        np.testing.assert_allclose(z, [8 / 3], rtol=1e-15)

    @pytest.mark.parametrize("omega", [[0.5], [0.5, 0.5], [0.5] * 4, []])
    def test_length_mismatch(self, omega):
        # a candidate z* of the wrong length is refused, not broadcast
        fs = build_system(SIMPSON)
        with pytest.raises(ValueError, match=f"expected a vector of length 3, got {len(omega)}"):
            equioscillation_residual(fs, omega)

    def test_accepts_double_double_pairs(self):
        _, fs, sol = solved(q.Family.GAUSS_LEGENDRE, 5)
        np.testing.assert_array_equal(equioscillation_residual(fs, list(sol._z_dd)),
                                      equioscillation_residual(fs, sol))

    def test_z_equals_omega_plus_tau_exactly(self):
        for family, n in family_cases(2, 8):
            _, _, sol = solved(family, n)
            assert np.array_equal(sol.z_star, sol.omega + sol.tau)

    def test_tau_bounded_by_mu(self):
        # ||tau||_inf <= |mu_Q| ||A^-1||_inf, so tau -> 0 with mu_Q
        from quadlsq.analysis import cond_inf_upper

        for family, n in family_cases(1, 9):
            _, fs, sol = solved(family, n)
            norm_ainf = np.max(np.sum(np.abs(fs.A), axis=1))
            bound = abs(fs.mu_Q) * cond_inf_upper(fs) / norm_ainf
            assert np.max(np.abs(sol.tau)) <= bound * (1 + 1e-12)


class TestEpsilonCheck:
    def test_simpson(self):
        fs = build_system(SIMPSON)
        assert epsilon_check(fs, solve_rule(fs)) == pytest.approx(4 / 15, rel=1e-14)

    def test_cc4(self):
        fs = build_system(NodeSet((-1.0, -0.5, 0.5, 1.0)))
        assert epsilon_check(fs, solve_rule(fs)) == pytest.approx(1 / 15, rel=1e-13)

    def test_gl2(self):
        _, fs, sol = solved(q.Family.GAUSS_LEGENDRE, 2)
        assert epsilon_check(fs, sol) == pytest.approx(8 / 45, rel=1e-13)

    def test_accepts_plain_vector(self):
        fs = build_system(SIMPSON)
        assert epsilon_check(fs, solve_rule(fs).omega) == pytest.approx(4 / 15, rel=1e-12)

    def test_mismatch_raises(self):
        fs = build_system(SIMPSON)
        with pytest.raises(SelfCheckError, match="epsilon self-check"):
            epsilon_check(fs, [1.0, 1.0, 1.0])  # not the least-squares solution

    def test_mismatch_names_the_relative_gap(self):
        # NC-57's residual is right; its omega is too inaccurate for the check
        ns = q.generate(q.FamilySpec(q.Family.NEWTON_COTES, 57))
        fs = build_system(ns)
        with pytest.raises(SelfCheckError,
                           match=r"a relative gap of 2\.6e-10 > EPS_CHECK_RTOL = 1e-10$"):
            epsilon_check(fs, solve_rule(fs))

    def test_nan_eps_raises(self):
        # nodes 1e-155 apart on (-1, 1): the weights, the residual and eps
        # are nan, and a nan eps fails the check as a wrong one does
        fs = build_system(NodeSet((0.0, 1e-155, 2e-155)))
        with pytest.raises(SelfCheckError, match=r"\|\|r\|\|_1 = nan but \|mu_Q\| = 0\.4,"):
            epsilon_check(fs, solve_rule(fs))

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_equals_principal_moment(self, family, n):
        _, fs, sol = solved(family, n)
        assert epsilon_check(fs, sol) == pytest.approx(abs(fs.mu_Q), rel=1e-12)

    @pytest.mark.parametrize("family,n", [(q.Family.NEWTON_COTES, 3), (q.Family.FEJER1, 9),
                                          (q.Family.CLENSHAW_CURTIS, 17),
                                          (q.Family.GAUSS_LEGENDRE, 12)])
    def test_scaling_by_a_power_of_two_is_exact(self, family, n):
        # r and mu_Q scaled by 2^k give eps scaled by 2^k, bit for bit, for
        # every k that keeps each nonzero component a normal double: the
        # squared 2-norm, up to 2^2048 unscaled, never overflows.  eps is
        # taken on the one route of epsilon_check and build_report.
        _, fs, sol = solved(family, n)
        r = residual(fs, sol._omega_dd)
        eps = _epsilon(fs, *_scaled_norms(r))
        assert eps == epsilon_check(fs, sol)
        exps = [math.frexp(v)[1] for v in np.abs(r) if v != 0.0]
        for k in range(-1021 - min(exps), 1024 - max(exps) + 1, 7):
            scaled = SimpleNamespace(mu_Q=math.ldexp(fs.mu_Q, k))
            eps_k = _epsilon(scaled, *_scaled_norms(np.ldexp(r, k)))
            assert eps_k == math.ldexp(eps, k), k


class TestEquioscillation:
    def test_simpson(self):
        fs = build_system(SIMPSON)
        r = equioscillation_residual(fs, solve_rule(fs))
        np.testing.assert_allclose(r, 4 / 15, rtol=1e-14)

    def test_midpoint_signs(self):
        fs = build_system(NodeSet((0.0,)))
        r = equioscillation_residual(fs, solve_rule(fs))
        np.testing.assert_allclose(r, [2 / 3, -2 / 3], rtol=1e-15)

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_sign_convention(self, family, n):
        # rows 1..n come out +|mu_Q| (the sign(0) = 1 convention),
        # row n+1 equals -mu_Q
        _, fs, sol = solved(family, n)
        r = equioscillation_residual(fs, sol)
        mu = fs.mu_Q
        np.testing.assert_allclose(r[:-1], abs(mu), rtol=1e-10)
        assert r[-1] == pytest.approx(-mu, rel=1e-12)

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_constant_magnitudes(self, family, n):
        _, fs, sol = solved(family, n)
        r = equioscillation_residual(fs, sol)
        np.testing.assert_allclose(np.abs(r), abs(fs.mu_Q), rtol=1e-10)

    @pytest.mark.parametrize("family,n", family_cases(1, 12))
    def test_minimax_norm_equals_lsq_norms(self, family, n):
        _, fs, sol = solved(family, n)
        r_w = residual(fs, list(sol._omega_dd))
        r_z = equioscillation_residual(fs, sol)
        norms = residual_norms(r_w)
        z_inf = residual_norms(r_z)[math.inf]
        for p in (1, 2, math.inf):
            assert norms[p] == pytest.approx(z_inf, rel=1e-10)


class TestLocalOptimality:
    @pytest.mark.parametrize("family,n", family_cases(1, 4))
    def test_perturbations_do_not_improve(self, family, n):
        # nudging z* along any axis never lowers the max residual
        _, fs, sol = solved(family, n)
        base = residual_norms(equioscillation_residual(fs, sol))[math.inf]
        for i in range(n):
            for delta in (1e-6, -1e-6):
                z = sol.z_star.copy()
                z[i] += delta
                perturbed = residual_norms(residual(fs, z))[math.inf]
                assert perturbed >= base - 1e-12
