"""Diagnostic parameters of a solved rule.

For each rule we report, alongside degree and principal moment:

* norm parameters N_omega = ||omega||_1 and N_z = ||z*||_1 -- boundedness of
  N_omega across n is necessary and sufficient for convergence of a family;
* the angle of the rule, arccos(|<z*, omega>| / (||z*||_2 ||omega||_2)),
  in degrees -- a convergent family has its least-squares and minimax
  solutions asymptotically aligned;
* the error coefficient alpha = c_n = mu_Q / (d+1)!, the constant in the
  smooth-integrand error formula E = alpha * f^(d+1)(xi);
* the conditioning-flavoured bounds, which hold in exact arithmetic (the
  reported values may miss them by a few roundings)
      Omega = ||A||_1 ||omega - z*||_1 / sqrt(n)      (|mu_Q| <= Omega)
      Gamma = ||z* - omega||_inf ||A||_inf / |mu_Q|   (1 <= Gamma <= cond_inf(A))
  with cond_inf(A) computed in O(n^2) from the closed-form inverse of A
  (:func:`cond_inf_upper`) to within (4n+1) u, u = 2^-53, and not estimated:
  an estimator would blur the ill-conditioning signal these bounds expose;
* the 1-, 2-, 3- and inf-norms of r(omega), ||r(z*)||_inf and the
  self-check's epsilon, whose common size is |mu_Q|.

The reductions of a residual are formed here, not in :mod:`quadlsq.system`:
its norms (:func:`_scaled_norms`, which :func:`residual_norms` unscales)
and the epsilon identity (:func:`_epsilon`, shared with ``epsilon_check``).

Every diagnostic is a reduction over at most a few thousand doubles, so it
runs on Python floats with the stdlib: sums by ``math.fsum`` (correctly
rounded; the row sums of |A^-1| run along with their terms), 2-norms by
``math.hypot``, maxima that pass a nan on as numpy's do.  The report reads
the solution's doubles and the rows of ``A_dd`` and never imports numpy;
the functions take lists, tuples or 1-d arrays.
"""

import math
import operator

from .basis import _Record, _on_grid, _vector
from .errors import SelfCheckError, SingularDiagonalError
from .system import _checked_eps_deg, _residuals, build_system, solve_rule

#: Relative tolerance of the eps = |mu_Q| self-check.
EPS_CHECK_RTOL = 1e-10


class RuleReport(_Record):
    """All scalar diagnostics for one (family, n) pair, the residual norms
    among them, each a plain field, so a report pickles and copies."""

    __match_args__ = ("family", "n", "degree", "mu_Q", "N_omega", "N_z", "angle_deg",
                      "tau_inf", "alpha", "c_n", "Omega", "Gamma", "cond_inf_A",
                      "r_omega_1", "r_omega_2", "r_omega_3", "r_omega_inf", "r_z_inf",
                      "epsilon")

    def __init__(self, family: str, n: int, degree: int, mu_Q: float, N_omega: float,
                 N_z: float, angle_deg: float, tau_inf: float, alpha: float, c_n: float,
                 Omega: float, Gamma: float, cond_inf_A: float, r_omega_1: float,
                 r_omega_2: float, r_omega_3: float, r_omega_inf: float, r_z_inf: float,
                 epsilon: float):
        vars(self).update(family=family, n=n, degree=degree, mu_Q=mu_Q, N_omega=N_omega,
                          N_z=N_z, angle_deg=angle_deg, tau_inf=tau_inf, alpha=alpha,
                          c_n=c_n, Omega=Omega, Gamma=Gamma, cond_inf_A=cond_inf_A,
                          r_omega_1=r_omega_1, r_omega_2=r_omega_2, r_omega_3=r_omega_3,
                          r_omega_inf=r_omega_inf, r_z_inf=r_z_inf, epsilon=epsilon)


def residual_norms(r):
    """The 1-, 2-, 3- and max norms of a residual vector, keyed 1, 2, 3 and
    ``math.inf``, on Python floats of r scaled exactly by the power of two
    of max |r|: no cube overflows where a norm fits, and one that does not
    is inf.  r goes through the one coercion of a vector passed in, with
    any length allowed."""
    return _unscaled(*_scaled_norms(_vector(r)))


def _max(values):
    """The largest of some doubles, nan if one is nan (as numpy's max
    gives it, where Python's ``max`` depends on the order), 0.0 for none."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _fsum(values):
    """The sum of a list or tuple of nonnegative doubles, correctly rounded
    by ``math.fsum``.  Where a partial sum passes the double range fsum
    raises ``OverflowError``; the sum is then inf, which the plain running
    sum gives (nan if a value is nan), as numpy's sum does."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)


def _pow2_scaled(x):
    """(e, [x_i / 2^e]) as doubles, 2^e the power of two of the largest
    finite |x_i| (e = 0 if there is none), so that every finite
    |x_i / 2^e| lies below 1 and the largest in [1/2, 1); inf and nan stay
    as they are.  The scaling is exact wherever no quotient is subnormal.
    x is a list or an array, read twice."""
    e = math.frexp(max(filter(math.isfinite, map(abs, x)), default=0.0))[1]
    return e, [math.ldexp(v, -e) for v in x]


def _scaled_norms(r):
    """(e, {p: ||r / 2^e||_p}) for p = 1, 2, 3 and ``math.inf``, 2^e the
    power of two of max |r|: every finite |r_i| / 2^e < 1, so no cube or sum
    overflows and ``math.fsum`` never raises.  ``math.sqrt`` is correctly
    rounded, s ** 0.5 (libm pow) is not."""
    e, scaled = _pow2_scaled(list(map(abs, r)))
    return e, {
        1: math.fsum(scaled),
        2: math.sqrt(math.fsum([v * v for v in scaled])),
        3: math.fsum([v ** 3 for v in scaled]) ** (1.0 / 3),
        math.inf: _max(scaled),
    }


def _unscaled(e, scaled):
    """The norms of :func:`_scaled_norms` times 2^e, as floats; a norm
    beyond the double range, where ``math.ldexp`` raises, is inf."""
    out = {}
    for p, v in scaled.items():
        try:
            out[p] = math.ldexp(v, e)
        except OverflowError:
            out[p] = math.inf
    return out


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
    omega = _vector(omega)
    return _rule_angle(omega, _vector(z_star, len(omega)), degrees)


def _rule_angle(omega, z_star, degrees=True):
    """:func:`rule_angle` of two lists of doubles of one length."""
    _, omega = _pow2_scaled(omega)
    _, z_star = _pow2_scaled(z_star)
    nw = math.hypot(*omega)
    nz = math.hypot(*z_star)
    if not (0.0 < nw < math.inf and 0.0 < nz < math.inf):
        raise ValueError("zero vector or non-finite entry: the rule angle is undefined")
    if _exactly_parallel(omega, z_star):
        return 0.0
    u = [x / nw for x in omega]
    v = [x / nz for x in z_star]
    if math.fsum(map(operator.mul, u, v)) < 0.0:
        v = [-x for x in v]
    ang = 2.0 * math.atan2(math.hypot(*map(operator.sub, u, v)),
                           math.hypot(*map(operator.add, u, v)))
    return math.degrees(ang) if degrees else ang


def _exactly_parallel(x, y):
    """True if x_k y_i = x_i y_k exactly for every i, k the index of the
    largest |x_k|, on finite vectors below 1 in magnitude.  Equal products
    round equal, so the exact products, on one integer grid of both
    vectors (:func:`quadlsq.basis._on_grid`), are compared only where the
    rounded ones agree."""
    ax = list(map(abs, x))
    k = ax.index(max(ax))
    if [x[k] * v for v in y] != [y[k] * v for v in x]:
        return False
    _, grid = _on_grid([*x, *y])
    X, Y = grid[:len(x)], grid[len(x):]
    return all(X[k] * Yi == Xi * Y[k] for Xi, Yi in zip(X, Y))


def norm_params(omega, z_star):
    """1-norms (N_omega, N_z) of the two solutions, which must be of one length."""
    omega = _vector(omega)
    return _norm_params(omega, _vector(z_star, len(omega)))


def _norm_params(omega, z_star):
    """:func:`norm_params` of two lists of doubles."""
    return _fsum([abs(v) for v in omega]), _fsum([abs(v) for v in z_star])


def error_coefficient(mu_Q, degree):
    """Error-formula constant alpha = c_n = mu_Q / (degree+1)!.

    mu_Q is an exact binary rational p/q, so the quotient is one integer
    true division p / (q (degree+1)!), which CPython rounds correctly for
    every degree, down to 0 where it underflows.
    The report carries this one value twice, as alpha and as c_n.
    """
    if degree < 0 or not math.isfinite(mu_Q):
        raise ValueError(f"need degree >= 0 and a finite mu_Q, got {degree} and {mu_Q!r}")
    p, q = mu_Q.as_integer_ratio()
    return p / (q * math.factorial(degree + 1))


def cond_inf_upper(fs):
    """cond_inf(A) = ||A||_inf ||A^-1||_inf of a fundamental system, in O(n^2).

    A^T is the Newton-basis evaluation matrix of the nodes t, so A^-1 is
    known in closed form: A^-1[k][i] = 1 / prod_{m <= i, m != k} (t_k - t_m)
    for i >= k, the divided-difference weights (Berrut & Trefethen, SIAM
    Review 46, 2004).  Each row sum of |A^-1| is one run of quotients by
    node differences (:func:`_norm_inf_inverse`).  A product beyond the
    double range gives a zero or infinite term, so the result may be inf.
    """
    return _norms_of_a(fs)[1] * _norm_inf_inverse(fs.nodes.nodes)


def _norms_of_a(fs):
    """(||A||_1, ||A||_inf): the largest column and row sums of |A|, read
    from the rows of ``A_dd`` in one pass."""
    rows = [[abs(h + l) for h, l in row] for row in fs.A_dd]
    columns = zip(*[[0.0] * i + row for i, row in enumerate(rows)])
    return _max(map(_fsum, columns)), _max(map(_fsum, rows))


def _norm_inf_inverse(nodes):
    """||A^-1||_inf of the nodes' A, from the closed form of
    :func:`cond_inf_upper`.

    Row k of |A^-1| holds, from column k on, the terms
    1 / prod_{m <= i, m != k} |t_k - t_m|: 1 over the product of the
    differences left of k, then running quotients by those right of k,
    each added to the row sum as it comes.  One pass over the upper
    triangle forms each difference once: |t_k - t_i| = t_i - t_k (the
    nodes ascend) divides row k's running term and multiplies into row
    i's product, which is complete, in the order m = 0, 1, ..., when row
    i's turn comes.  A product that underflows to 0 gives an infinite
    term, one that overflows a zero term.
    """
    t = list(nodes)
    n = len(t)
    products = [1.0] * n  # prod_{m < k} |t_k - t_m|, from the rows before k
    sums = []
    for k, tk in enumerate(t):
        term = 1.0 / products[k] if products[k] else math.inf
        total = term
        for i in range(k + 1, n):
            d = t[i] - tk
            products[i] *= d
            term = term / d if d else math.inf
            total += term
        sums.append(total)
    return _max(sums)


def bounds_omega_gamma(fs, omega, z_star):
    """The bounds (Omega, Gamma, cond_inf_A) for a solved rule, the last
    :func:`cond_inf_upper`'s product; |A| and its norms are formed once.
    omega and z_star must be of length n."""
    return _bounds_omega_gamma(fs, _vector(omega, fs.n), _vector(z_star, fs.n))


def _bounds_omega_gamma(fs, omega, z_star):
    """:func:`bounds_omega_gamma` of two lists of n doubles."""
    diff = [abs(w - z) for w, z in zip(omega, z_star)]
    norm_a1, norm_ainf = _norms_of_a(fs)
    omega_bound = norm_a1 * _fsum(diff) / math.sqrt(fs.n)
    gamma = _max(diff) * norm_ainf / abs(fs.mu_Q)
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

    # r(omega) and r(z*) from one walk of A, then the scaled norms of
    # r(omega) once, for the check and the norms; the check comes first, so
    # a rule that fails it forms nothing more
    r_omega, r_z = _residuals(fs, solution._omega_dd, solution._z_dd)
    e, scaled = _scaled_norms(r_omega)
    epsilon = _epsilon(fs, e, scaled)
    omega, tau, z_star = solution._doubles
    if not all(map(math.isfinite, tau)):  # omega may pass the check, finite and right
        i = max(i for i, t in enumerate(tau) if not math.isfinite(t))  # the first solved
        raise SingularDiagonalError(f"tau is not finite from row {i + 1}: its diagonal entry "
                                    f"{sum(fs.A_dd[i][0]):g} is too small to divide by")
    norms_w = _unscaled(e, scaled)
    n_omega, n_z = _norm_params(omega, z_star)
    alpha = error_coefficient(fs.mu_Q, fs.degree)
    omega_bound, gamma, cond = _bounds_omega_gamma(fs, omega, z_star)

    return RuleReport(
        family=str(family),
        n=fs.n,
        degree=fs.degree,
        mu_Q=fs.mu_Q,
        N_omega=n_omega,
        N_z=n_z,
        angle_deg=_rule_angle(omega, z_star),
        tau_inf=_max(map(abs, tau)),
        alpha=alpha,
        c_n=alpha,
        Omega=omega_bound,
        Gamma=gamma,
        cond_inf_A=cond,
        r_omega_1=norms_w[1],
        r_omega_2=norms_w[2],
        r_omega_3=norms_w[3],
        r_omega_inf=norms_w[math.inf],
        r_z_inf=_max(map(abs, r_z)),  # exact, unscaled
        epsilon=epsilon,
    )
