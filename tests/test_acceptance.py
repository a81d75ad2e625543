"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each (run with ``pytest -s`` to see the lines).

Every criterion is asserted at its stated tolerance against its recorded
reference values, except three published values that the defining
equations do not give.  Those are kept here as documented figures, and the
sub-checks that targeted them now assert against the exact rational oracle
(``rational_pipeline``), computed inside the test:

* criterion 4, Fejer-17 angle.  Published: 0.00711 deg.  The equations give
  0.071085 deg, exactly ten times the published cell, so the cell is a
  decimal slip.  Now asserted: ``angle_deg`` of the 17-node rule equals the
  exact angle of the same double nodes to rel 1e-9.
* criterion 4, Clenshaw-Curtis angle.  Published: 0.0380 deg.  The
  published mu_Q (1.26e-8) and alpha (1.97e-24) fit the 18-abscissa rule
  and no other; its angle is 0.012921 deg (0.015879 deg at 17 abscissas).
  The nearest match to 0.0380 deg is the 13-abscissa rule (0.03853 deg),
  whose mu_Q 1.21e-6 and alpha 1.39e-17 match neither published cell.
  Now asserted: ``angle_deg`` of the 18-abscissa rule equals the exact
  angle to rel 1e-9.
* criterion 9, Newton-Cotes norm growth.  Published: N_omega does not
  decrease over consecutive n = 11..15.  Exact arithmetic contradicts it:
  closed Newton-Cotes norms oscillate between odd and even counts,
  N(11) = 6.1296 > N(12) = 3.1788 and N(13) = 15.063 > N(14) = 6.4943.
  Now asserted: growth within each parity class, each odd count above its
  even neighbours, N(15) > 10, and every N_omega(11..15) equal to the
  1-norm of the exact rational weights to rel 1e-12.

Why the program, and not the published cells, is right on the two angles:
``build_report`` agrees with the exact route on the same double nodes to
1.9e-11 (Fejer) and 3.5e-9 (CC); a 60-digit computation on the ideal
cosine nodes gives 0.071085 and 0.0129207 deg; the NC and GL angle cells of
the same table pass through the same code (4.5547 against 4.55, 1.5381e-4
against 1.54e-4); and neither descending node order (6.50 and 3.28 deg) nor
the interval [0, 1] (0.0223 and 0.0076 deg) reproduces the published cells.
Each exact angle is used only where the exact degree equals the reported
one, which holds for these exactly symmetric node sets.  The GL cell keeps
its published value: exact arithmetic on the rounded GL nodes gives degree
17, not the ideal rule's 33, so the exact angle is not the GL rule's angle.
"""

import math
import time
from fractions import Fraction

import numpy as np

import quadlsq as q

from helpers import FAMILIES, MIN_N, exact_angle, solved

NC, F1, CC, GL = (
    q.Family.NEWTON_COTES,
    q.Family.FEJER1,
    q.Family.CLENSHAW_CURTIS,
    q.Family.GAUSS_LEGENDRE,
)


class Criterion:
    """Collects sub-checks and prints a single pass/fail line."""

    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def close(self):
        status = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else f"  ({len(self.failures)} failed checks)"
        print(f"criterion {self.number:2d} [{status}] {self.label}{detail}")
        assert not self.failures, (
            f"criterion {self.number} ({self.label}): " + " | ".join(self.failures)
        )


def _rel_ok(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def test_criterion_01_simpson_golden():
    c = Criterion(1, "Simpson golden values, runtime < 1 ms")
    ns = q.NodeSet((-1.0, 0.0, 1.0))

    def pipeline():
        fs = q.build_system(ns)
        return fs, q.solve_rule(fs)

    fs, sol = pipeline()
    for got, want, name in (
        (sol.omega, [1 / 3, 4 / 3, 1 / 3], "omega"),
        (sol.tau, [2 / 15, 0.0, 2 / 15], "tau"),
        (sol.z_star, [7 / 15, 4 / 3, 7 / 15], "z_star"),
    ):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        c.check(err <= 1e-15, f"{name} off by {err:.2e}")
    c.check(fs.degree == 3, f"degree {fs.degree} != 3")
    c.check(abs(fs.mu_Q - (-4 / 15)) <= 1e-15, f"mu_Q {fs.mu_Q!r}")

    best = min(
        (lambda t0: (pipeline(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    c.check(best < 1e-3, f"runtime {best * 1e3:.3f} ms >= 1 ms")
    c.close()


def test_criterion_02_cc4_golden_exact():
    c = Criterion(2, "CC 4-node golden values, exact rational")
    rr = q.rational_pipeline(["-1", "-1/2", "1/2", "1"])
    # entry (2,3) of the recorded matrix display reads 1/2, but
    # phi_1(1/2) = 3/2 and the recorded weights themselves require 3/2,
    # so the consistent matrix is asserted
    expected_a = (
        (1, 1, 1, 1),
        (0, Fraction(1, 2), Fraction(3, 2), 2),
        (0, 0, Fraction(3, 2), 3),
        (0, 0, 0, Fraction(3, 2)),
    )
    c.check(rr.A == expected_a, f"matrix mismatch: {rr.A}")
    c.check(rr.c == (2, 2, Fraction(5, 3), Fraction(1, 6)), f"rhs mismatch: {rr.c}")
    c.check(
        rr.weights == (Fraction(1, 9), Fraction(8, 9), Fraction(8, 9), Fraction(1, 9)),
        f"weights mismatch: {rr.weights}",
    )
    c.check(rr.mu_Q == Fraction(1, 15), f"mu_Q {rr.mu_Q} != 1/15")
    c.check(rr.degree == 3, f"degree {rr.degree} != 3")
    c.close()


def test_criterion_03_fejer3_golden():
    c = Criterion(3, "Fejer 3-node golden values to 1e-14")
    _, fs, sol = solved(F1, 3)
    err = float(np.max(np.abs(sol.omega - np.array([4 / 9, 10 / 9, 4 / 9]))))
    c.check(err <= 1e-14, f"omega off by {err:.2e}")
    c.check(abs(fs.mu_Q - (-0.1)) <= 1e-14, f"mu_Q {fs.mu_Q!r}")
    c.check(fs.degree == 3, f"degree {fs.degree} != 3")
    c.close()


def test_criterion_04_table_regression_17_nodes():
    c = Criterion(4, "17-node comparison table regression, runtime < 1 s")
    t0 = time.perf_counter()
    nodes, reports = {}, {}
    # The recorded CC column provably measures the rule with 18 practical
    # abscissas (exact values: mu = 4/(4845*2^16) = 1.2598e-8 at 18 nodes
    # versus 64/(62985*2^15) = 3.1009e-8 at 17; the recorded 1.26e-8 and
    # 1.97e-24 match the former to 0.2%), so CC is regressed at 18.
    for fam, n in ((NC, 17), (F1, 17), (CC, 18), (GL, 17)):
        nodes[fam] = q.generate(q.FamilySpec(fam, n))
        reports[fam] = q.build_report(nodes[fam], family=fam.value)
    elapsed = time.perf_counter() - t0
    # exact references, outside the timed window
    exact = {fam: exact_angle(nodes[fam]) for fam in (F1, CC)}

    for fam, want_degree in ((NC, 17), (F1, 17), (CC, 17), (GL, 33)):
        got = reports[fam].degree
        c.check(got == want_degree, f"{fam.value} degree {got} != {want_degree}")

    c.check(_rel_ok(reports[F1].mu_Q, -1.07e-7, 0.02),
            f"F mu_Q {reports[F1].mu_Q:.4e} not within 2% of -1.07e-7")
    c.check(_rel_ok(reports[CC].mu_Q, 1.26e-8, 0.02),
            f"CC mu_Q {reports[CC].mu_Q:.4e} not within 2% of 1.26e-8")
    c.check(_rel_ok(reports[GL].mu_Q, 1.80e-10, 0.02),
            f"GL mu_Q {reports[GL].mu_Q:.4e} not within 2% of 1.80e-10")
    c.check(-2.0e-4 <= reports[NC].mu_Q <= -1.0e-4,
            f"NC mu_Q {reports[NC].mu_Q:.6e} outside [-2.0e-4, -1.0e-4]")

    c.check(_rel_ok(reports[NC].angle_deg, 4.55, 0.15),
            f"NC angle {reports[NC].angle_deg:.4f} not within 15% of 4.55")
    c.check(_rel_ok(reports[GL].angle_deg, 0.000154, 0.05),
            f"GL angle {reports[GL].angle_deg:.6e} not within 5% of 0.000154")
    # the published Fejer (0.00711) and CC (0.0380) cells are set aside
    # (module docstring); both angles are checked against the exact oracle
    # on the same nodes, where its degree is the one the pipeline reports
    for fam, (degree, want) in exact.items():
        got = reports[fam].angle_deg
        c.check(degree == reports[fam].degree,
                f"{fam.value} exact degree {degree} != reported {reports[fam].degree}")
        c.check(_rel_ok(got, want, 1e-9),
                f"{fam.value} angle {got:.8f} not within 1e-9 of exact {want:.8f}")

    c.check(_rel_ok(reports[CC].alpha, 1.97e-24, 0.05),
            f"CC alpha {reports[CC].alpha:.4e} not within 5% of 1.97e-24")
    c.check(_rel_ok(reports[GL].alpha, 6.11e-49, 0.05),
            f"GL alpha {reports[GL].alpha:.4e} not within 5% of 6.11e-49")

    c.check(elapsed < 1.0, f"runtime {elapsed:.3f} s >= 1 s")
    c.close()


def test_criterion_05_constant_residual_norms():
    c = Criterion(5, "constant residual norms, all families, n = 2..12")
    for fam in FAMILIES:
        for n in range(max(2, MIN_N[fam]), 13):
            _, fs, sol = solved(fam, n)
            mu = abs(fs.mu_Q)
            r_w = q.residual(fs, list(sol._omega_dd))
            r_z = q.equioscillation_residual(fs, sol)
            norms = q.residual_norms(r_w)
            for p in (1, 2, 3, math.inf):
                c.check(_rel_ok(norms[p], mu, 1e-10),
                        f"{fam.value} n={n}: ||r(w)||_{p} != |mu_Q|")
            z_inf = q.residual_norms(r_z)[math.inf]
            c.check(_rel_ok(z_inf, mu, 1e-10),
                    f"{fam.value} n={n}: ||r(z*)||_inf != |mu_Q|")
            worst = float(np.max(np.abs(np.abs(r_z) - mu)))
            c.check(worst <= 1e-10 * mu,
                    f"{fam.value} n={n}: r(z*) component deviates by {worst:.2e}")
    c.close()


def test_criterion_06_epsilon_identity():
    c = Criterion(6, "eps = ||r||_2^2 / ||r||_1 equals |mu_Q| to 1e-12")
    for fam in FAMILIES:
        for n in range(MIN_N[fam], 13):
            _, fs, sol = solved(fam, n)
            eps = q.epsilon_check(fs, sol)
            c.check(_rel_ok(eps, abs(fs.mu_Q), 1e-12),
                    f"{fam.value} n={n}: eps {eps!r} vs |mu_Q| {abs(fs.mu_Q)!r}")
    c.close()


def test_criterion_07_oracle_equivalence():
    c = Criterion(7, "all oracle routes agree with the primary pipeline")
    for fam in FAMILIES:
        for n in range(MIN_N[fam], 13):
            ns, fs, sol = solved(fam, n)
            scale = max(1.0, float(np.max(np.abs(sol.omega))))
            y = q.lsq_normal_equations(fs)
            c.check(float(np.max(np.abs(y - sol.omega))) <= 1e-8 * scale,
                    f"{fam.value} n={n}: normal equations disagree")
            z, eps = q.direct_sis4_minimax(fs)
            zscale = max(1.0, float(np.max(np.abs(sol.z_star))))
            c.check(float(np.max(np.abs(z - sol.z_star))) <= 1e-10 * zscale,
                    f"{fam.value} n={n}: direct minimax disagrees")
            c.check(_rel_ok(eps, abs(fs.mu_Q), 1e-10),
                    f"{fam.value} n={n}: direct minimax eps disagrees")
            c.check(q.degree_by_monomials(ns, sol.omega) == fs.degree,
                    f"{fam.value} n={n}: monomial degree disagrees")
    for n in range(2, 18):
        ns, fs, sol = solved(NC, n)
        rr = q.rational_pipeline(ns)
        c.check(rr.degree == fs.degree, f"NC n={n}: rational degree disagrees")
        c.check(_rel_ok(fs.mu_Q, float(rr.mu_Q), 1e-13),
                f"NC n={n}: rational mu_Q disagrees")
        worst = max(
            abs(got - float(want)) / abs(float(want))
            for got, want in zip(sol.omega, rr.weights)
        )
        c.check(worst <= 1e-13, f"NC n={n}: rational weights disagree ({worst:.2e})")
    c.close()


def test_criterion_08_bound_suite():
    c = Criterion(8, "|mu_Q| <= Omega and 1 <= Gamma <= cond_inf(A)")
    for fam in FAMILIES:
        for n in range(MIN_N[fam], 13):
            _, fs, sol = solved(fam, n)
            omega_bound, gamma, cond = q.bounds_omega_gamma(fs, sol.omega, sol.z_star)
            c.check(abs(fs.mu_Q) <= omega_bound + 1e-12,
                    f"{fam.value} n={n}: |mu_Q| > Omega")
            c.check(1.0 - 1e-10 <= gamma <= cond * (1.0 + 1e-10),
                    f"{fam.value} n={n}: Gamma {gamma!r} outside [1, cond {cond!r}]")
    ns = q.NodeSet((-1.0, 0.0, 1.0))
    fs = q.build_system(ns)
    sol = q.solve_rule(fs)
    omega_bound, gamma, _ = q.bounds_omega_gamma(fs, sol.omega, sol.z_star)
    c.check(_rel_ok(omega_bound, 4.0 / (3.0 * math.sqrt(3.0)), 1e-12),
            f"Simpson Omega {omega_bound!r}")
    c.check(_rel_ok(gamma, 1.5, 1e-12), f"Simpson Gamma {gamma!r}")
    c.close()


def test_criterion_09_figure_shapes():
    c = Criterion(9, "qualitative family shapes (norms and tau decay)")
    nc_norms = {}
    for n in range(11, 16):
        ns, _, sol = solved(NC, n)
        nc_norms[n] = float(np.sum(np.abs(sol.omega)))
        want = float(sum(abs(w) for w in q.rational_pipeline(ns).weights))
        c.check(_rel_ok(nc_norms[n], want, 1e-12),
                f"NC n={n}: N_omega {nc_norms[n]!r} != exact 1-norm {want!r}")
    # the published shape claim, non-decreasing over consecutive n, is set
    # aside (module docstring): the norms oscillate between odd and even
    # counts, and grow within each parity class
    for lo, hi in ((11, 13), (13, 15), (12, 14)):
        c.check(nc_norms[lo] < nc_norms[hi],
                f"NC N_omega({lo}) = {nc_norms[lo]:.4g} >= "
                f"N_omega({hi}) = {nc_norms[hi]:.4g}")
    for n in (12, 14):
        c.check(nc_norms[n - 1] > nc_norms[n] < nc_norms[n + 1],
                f"NC N_omega({n}) = {nc_norms[n]:.4g} not below its odd "
                f"neighbours ({nc_norms[n - 1]:.4g}, {nc_norms[n + 1]:.4g})")
    c.check(nc_norms[15] > 10.0, f"NC N_omega(15) = {nc_norms[15]:.4g} <= 10")

    for fam in (GL, CC, F1):
        for n in range(max(2, MIN_N[fam]), 13):
            _, _, sol = solved(fam, n)
            n_omega = float(np.sum(np.abs(sol.omega)))
            c.check(abs(n_omega - 2.0) <= 1e-10,
                    f"{fam.value} n={n}: N_omega {n_omega!r} != 2")
            c.check(bool(np.all(sol.omega > 0)),
                    f"{fam.value} n={n}: non-positive weight")
        tau4 = float(np.max(np.abs(solved(fam, 4)[2].tau)))
        tau12 = float(np.max(np.abs(solved(fam, 12)[2].tau)))
        c.check(tau4 >= 10.0 * tau12,
                f"{fam.value}: tau_inf(4)/tau_inf(12) = {tau4 / tau12:.2f} < 10")
    c.close()


def test_criterion_10_gauss_maximal_degree():
    c = Criterion(10, "Gauss-Legendre reaches degree 2n-1 for n = 1..12")
    for n in range(1, 13):
        _, fs, _ = solved(GL, n)
        c.check(fs.degree == 2 * n - 1, f"n={n}: degree {fs.degree} != {2 * n - 1}")
    c.close()
