"""Minimax (Chebyshev) solution of the fundamental system.

For a full-rank system of n+1 equations in n unknowns the minimax solution
follows from the least-squares one: the residual at the least-squares
weights is zero except for the last component -mu_Q, so with the convention
sign(0) = 1 the minimax solution z* solves A z - |mu_Q| v = c, i.e.

    z* = omega + tau,     A tau = |mu_Q| v,     v = [1, ..., 1]^T.

At z* every residual component has the same magnitude |mu_Q|: components
1..n equal +|mu_Q| and component n+1 equals -mu_Q.  The quantity

    eps = ||r(omega)||_2^2 / ||r(omega)||_1

must equal |mu_Q| as well; ``epsilon_check`` computes it from the actual
residual and faults if the identity is violated, since that would mean the
residual computation itself is broken.  ``analysis.build_report`` takes
the same route, and the same residual as ``equioscillation_residual``.

z* is always derived through tau rather than by eliminating the (n+1)x(n+1)
system with eps unknown; the two are algebraically identical and the tau
route reuses the triangular solver.  The direct elimination lives in
:mod:`quadlsq.oracle` as an independent check.

The one backward pass that gives omega and tau, ``solve_rule``, lives in
:mod:`quadlsq.system` next to the store it reads, and z* is derived from
them there.  This module keeps the checks on the minimax residual.  It
stays a module of its own because the benchmark tracer
(``perfbench/tracing.py``) looks ``quadlsq.minimax`` up by name as one of
its span layers.
"""

import math

from .errors import SelfCheckError
from .system import RuleSolution, _freeze, _residual, _scaled_norms

#: Relative tolerance of the eps = |mu_Q| self-check.
EPS_CHECK_RTOL = 1e-10


def epsilon_check(fs, omega):
    """Minimax residual magnitude from the least-squares residual.

    Computes eps = ||r(omega)||_2^2 / ||r(omega)||_1 and cross-checks it
    against |mu_Q|; a relative mismatch beyond ``EPS_CHECK_RTOL`` (or a nan
    eps) raises :class:`SelfCheckError`.  ``omega`` may be a plain vector or a
    :class:`RuleSolution`.  The norms are taken of r / 2^e, with 2^e the
    power of two of max |r|, and eps is scaled back by 2^e: an exact
    scaling, so ||r||_2^2 cannot overflow while eps itself fits.
    """
    if isinstance(omega, RuleSolution):
        omega = omega._omega_dd
    return _epsilon(fs, *_scaled_norms(_residual(fs, omega)))


def _epsilon(fs, e, scaled):
    """eps from the 1- and 2-norms of r / 2^e, checked against |mu_Q|."""
    eps = math.ldexp(scaled[2] ** 2 / scaled[1], e)
    ref = abs(fs.mu_Q)
    if not abs(eps - ref) <= EPS_CHECK_RTOL * ref:  # a nan eps fails too
        raise SelfCheckError(
            f"epsilon self-check failed: ||r||_2^2/||r||_1 = {eps!r} but |mu_Q| = {ref!r}, "
            f"a relative gap of {abs(eps - ref) / ref:.2g} > EPS_CHECK_RTOL = {EPS_CHECK_RTOL:g}"
        )
    return eps


def equioscillation_residual(fs, z_star):
    """Residual at the minimax solution; every component has size |mu_Q|.

    ``z_star`` may be a plain vector or a :class:`RuleSolution` (preferred:
    its double-double pairs keep the components equal to |mu_Q| at full
    accuracy).  Components 1..n come out as +|mu_Q|, component n+1 as
    -mu_Q.
    """
    if isinstance(z_star, RuleSolution):
        z_star = z_star._z_dd
    return _freeze(_residual(fs, z_star))
