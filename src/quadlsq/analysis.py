"""Diagnostic parameters of a solved rule.

For each rule we report, alongside degree and principal moment:

* norm parameters N_omega = ||omega||_1 and N_z = ||z*||_1 -- boundedness of
  N_omega across n is necessary and sufficient for convergence of a family;
* the angle of the rule, arccos(|<z*, omega>| / (||z*||_2 ||omega||_2)),
  in degrees -- a convergent family has its least-squares and minimax
  solutions asymptotically aligned;
* the error coefficient alpha = c_n = mu_Q / (d+1)!, the constant in the
  smooth-integrand error formula E = alpha * f^(d+1)(xi);
* the conditioning-flavoured bounds
      Omega = ||A||_1 ||omega - z*||_1 / sqrt(n)      (|mu_Q| <= Omega)
      Gamma = ||z* - omega||_inf ||A||_inf / |mu_Q|   (1 <= Gamma <= cond_inf(A))
  with cond_inf(A) computed in O(n^2) from the closed-form inverse of A
  (see :func:`cond_inf_upper`), to within (4n+1) u of its exact value,
  u = 2^-53.  It is not estimated: an estimator would blur the
  ill-conditioning signal these bounds exist to expose.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .basis import _on_grid
from .minimax import _epsilon, equioscillation_residual
from .system import (
    _checked_eps_deg, _pow2_scaled, _scaled_norms, _sized, _unscaled, build_system,
    residual, residual_norms, solve_rule,
)


@dataclass(frozen=True, eq=False)
class RuleReport:
    """All scalar diagnostics for one (family, n) pair."""

    family: str
    n: int
    degree: int
    mu_Q: float
    N_omega: float
    N_z: float
    angle_deg: float
    tau_inf: float
    alpha: float
    c_n: float
    Omega: float
    Gamma: float
    cond_inf_A: float
    residual_norms: MappingProxyType


def rule_angle(omega, z_star, degrees=True):
    """Angle between the weight vector and the minimax solution.

    Each vector is first divided by the power of two of its largest
    component, an exact scaling that keeps the norms from overflowing, and
    then by its 2-norm, to the unit vectors u and v.  The angle is Kahan's
    2 atan2(||u - v||, ||u + v||), with v negated when <u, v> < 0 so that
    opposite directions fold together, as the |<z*, omega>| of the cosine
    does.  Its error is about one rounding of the unit vectors, some
    1e-16 rad, where arccos of the cosine resolves nothing below
    sqrt(2 eps) ~ 1e-8 rad, so an angle of 1e-7 rad keeps about nine
    digits.  Exactly parallel or opposite vectors (:func:`_exactly_parallel`)
    give 0, and a zero vector, a non-finite entry or vectors of two lengths
    are a ``ValueError``.  Reported in degrees by convention; pass
    ``degrees=False`` for radians.
    """
    omega = _sized(np.asarray(omega, dtype=float), np.size(omega))
    z_star = _sized(np.asarray(z_star, dtype=float), len(omega))
    _, omega = _pow2_scaled(omega)
    _, z_star = _pow2_scaled(z_star)
    nw = np.linalg.norm(omega)
    nz = np.linalg.norm(z_star)
    if not (0.0 < nw < math.inf and 0.0 < nz < math.inf):
        raise ValueError("zero vector or non-finite entry: the rule angle is undefined")
    if _exactly_parallel(omega, z_star):
        return 0.0
    u = omega / nw
    v = z_star / nz
    if np.dot(u, v) < 0.0:
        v = -v
    ang = 2.0 * math.atan2(np.linalg.norm(u - v), np.linalg.norm(u + v))
    return math.degrees(ang) if degrees else ang


def _exactly_parallel(x, y):
    """True if x_k y_i = x_i y_k exactly for every i, k the index of the
    largest |x_k|, on arrays below 1 in magnitude.  Equal products round
    equal, so the exact products, on one integer grid of both vectors
    (:func:`quadlsq.basis._on_grid`), are compared only where the rounded
    ones agree."""
    k = int(np.argmax(np.abs(x)))
    if not (x[k] * y == x * y[k]).all():
        return False
    _, grid = _on_grid([*x.tolist(), *y.tolist()])
    X, Y = grid[:len(x)], grid[len(x):]
    return all(X[k] * Yi == Xi * Y[k] for Xi, Yi in zip(X, Y))


def norm_params(omega, z_star):
    """1-norms (N_omega, N_z) of the two solutions, which must be of one length."""
    omega = _sized(np.asarray(omega, dtype=float), np.size(omega))
    z_star = _sized(np.asarray(z_star, dtype=float), len(omega))
    return float(np.sum(np.abs(omega))), float(np.sum(np.abs(z_star)))


def error_coefficient(mu_Q, degree):
    """Error-formula constant alpha = c_n = mu_Q / (degree+1)!.

    mu_Q is an exact binary rational p/q, so the quotient is one integer
    true division p / (q (degree+1)!), which CPython rounds correctly for
    every degree, down to 0 where it underflows.
    Returns the pair (alpha, c_n); the two names denote the same value.
    """
    if degree < 0 or not math.isfinite(mu_Q):
        raise ValueError(f"need degree >= 0 and a finite mu_Q, got {degree} and {mu_Q!r}")
    p, q = mu_Q.as_integer_ratio()
    value = p / (q * math.factorial(degree + 1))
    return value, value


def cond_inf_upper(fs):
    """cond_inf(A) = ||A||_inf ||A^-1||_inf of a fundamental system, in O(n^2).

    A^T is the Newton-basis evaluation matrix of the nodes t, so A^-1 is
    known in closed form: A^-1[k][i] = 1 / prod_{m <= i, m != k} (t_k - t_m)
    for i >= k, the divided-difference weights (Berrut & Trefethen, SIAM
    Review 46, 2004).  Each row sum of |A^-1| is one running product of
    node differences.  A product beyond the double range gives a zero or
    infinite term, so the result may be inf but never nan.
    """
    return float(np.max(np.sum(np.abs(fs.A), axis=1))) * _norm_inf_inverse(fs.nodes.nodes)


def _norm_inf_inverse(nodes):
    """||A^-1||_inf of the nodes' A, from the closed form of
    :func:`cond_inf_upper`."""
    t = np.asarray(nodes, dtype=float)
    d = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(d, 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.max(np.sum(np.triu(1.0 / np.cumprod(d, axis=1)), axis=1)))


def bounds_omega_gamma(fs, omega, z_star):
    """The bounds (Omega, Gamma, cond_inf_A) for a solved rule, the last
    :func:`cond_inf_upper`'s product; |A| and its row-sum norm are formed
    once.  omega and z_star must be of length n."""
    omega = _sized(np.asarray(omega, dtype=float), fs.n)
    z_star = _sized(np.asarray(z_star, dtype=float), fs.n)
    diff = omega - z_star
    abs_a = np.abs(fs.A)
    norm_a1 = float(np.max(np.sum(abs_a, axis=0)))
    norm_ainf = float(np.max(np.sum(abs_a, axis=1)))
    omega_bound = norm_a1 * float(np.sum(np.abs(diff))) / math.sqrt(fs.n)
    gamma = float(np.max(np.abs(diff))) * norm_ainf / abs(fs.mu_Q)
    return omega_bound, gamma, norm_ainf * _norm_inf_inverse(fs.nodes.nodes)


def build_report(ns, family="custom", eps_deg=None, fs=None, solution=None):
    """Run the full pipeline on a node set and collect every diagnostic.

    ``fs`` and ``solution`` may be passed in when already computed; an ``fs``
    on other nodes or another ``eps_deg``, or a lone ``solution``, is a ``ValueError``.
    """
    if fs is None:
        if solution is not None:
            raise ValueError("build_report: a solution needs the fs it solves")
        fs = build_system(ns, eps_deg=eps_deg)
    elif fs.nodes is not ns and fs.nodes != ns:
        raise ValueError("build_report: fs was built on other nodes than ns")
    elif eps_deg is not None and _checked_eps_deg(eps_deg) != fs.eps_deg:
        raise ValueError(f"build_report: eps_deg {eps_deg!r} != fs.eps_deg {fs.eps_deg!r}")
    if solution is None:
        solution = solve_rule(fs)

    # r(omega) and its scaled norms once, for the check and the norms; the
    # check comes first, so a rule that fails it forms nothing more
    e, scaled = _scaled_norms(residual(fs, solution._omega_dd), (1, 2, 3, math.inf))
    epsilon = _epsilon(fs, e, scaled)
    norms_w = _unscaled(e, scaled)
    r_z = equioscillation_residual(fs, solution)
    norms = {
        "r_omega_1": norms_w[1],
        "r_omega_2": norms_w[2],
        "r_omega_3": norms_w[3],
        "r_omega_inf": norms_w[math.inf],
        "r_z_inf": residual_norms(r_z, (math.inf,))[math.inf],
        "epsilon": epsilon,
    }
    n_omega, n_z = norm_params(solution.omega, solution.z_star)
    alpha, c_n = error_coefficient(fs.mu_Q, fs.degree)
    omega_bound, gamma, cond = bounds_omega_gamma(fs, solution.omega, solution.z_star)

    return RuleReport(
        family=str(family),
        n=fs.n,
        degree=fs.degree,
        mu_Q=fs.mu_Q,
        N_omega=n_omega,
        N_z=n_z,
        angle_deg=rule_angle(solution.omega, solution.z_star),
        tau_inf=float(np.max(np.abs(solution.tau))),
        alpha=alpha,
        c_n=c_n,
        Omega=omega_bound,
        Gamma=gamma,
        cond_inf_A=cond,
        residual_norms=MappingProxyType(norms),
    )
