"""The fundamental system of a rule and its least-squares solution.

Applying undetermined coefficients to the canonical basis gives an
overdetermined system F w = c of n+1 equations in the n weights:

    row i+1 (0 <= i <= n-1):  sum_j phi_i(t_j) w_j = mu_i,
    row n+1:                  0 = mu_Q,

where mu_i = integral of phi_i and mu_Q is the principal moment, the first
nonzero integral among the extended polynomials q_n..q_2n.  The top n rows
form an upper-triangular block A with nonzero diagonal, so the weights come
from plain backward substitution; that unique solution of A w = c is also
the least-squares solution of the full system, whose residual then has the
same norm |mu_Q| in every p-norm.

The moments and A come from one O(n^2) kernel that never forms polynomial
coefficients.  Write P_0..P_2n for phi_0..phi_{n-1}, q_n..q_2n, so that
P_j = P_{j-1}(x) (x - r_j) with roots r = t_1..t_n, t_1..t_n, and let c be
a double at or next to the interval midpoint (0 on (-1, 1)):

* moments (modified moments: Sack & Donovan 1972; Gautschi, *Orthogonal
  Polynomials: Computation and Approximation*, 2004, sec. 2.1): with
  M_j[m] = integral of P_j(x) (x - c)^m, M_0[m] is computed exactly and
  rounded once, then M_j[m] = M_{j-1}[m+1] - (r_j - c) M_{j-1}[m], and
  mu_j = M_j[0];
* A: phi_i(t_j) = phi_{i-1}(t_j) (t_j - t_i), a running product down each
  column of A from phi_0 = 1.

Every node difference is formed exactly by a two-sum.  Centring keeps the
terms of the moment recurrence as small as the interval allows, so a
shifted interval loses no more digits than one of the same length
centred at 0.

All matrix entries, moments and solves are carried in double-double and
rounded to doubles only at the public surface.  Residual norms, by contrast,
are plain-double reductions of the extended-precision residual components.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basis import NodeSet
from .ddouble import DD, ONE, ZERO, as_dd, exact_diff, from_fraction
from .errors import DegreeOverflowError, SingularDiagonalError

#: Relative zero threshold for degree detection, scaled by max(1, |mu_0|).
#: It must sit below the smallest genuine principal moment in scope
#: (Gauss-Legendre at 17 nodes: ~1.8e-10) and far above the double-double
#: noise floor of the moment accumulation (~1e-30).
DEFAULT_EPS_DEG = 1e-12


def _default_eps_deg(mu0):
    return DEFAULT_EPS_DEG * max(1.0, abs(mu0))


@dataclass(frozen=True, eq=False)
class FundamentalSystem:
    """F w = c_tilde for one node set, with the triangular block split out.

    ``moments`` holds mu_0..mu_{2n}: the canonical moments followed by all
    extended moments, kept so reports can show the full moment profile.
    """

    F: np.ndarray
    c_tilde: np.ndarray
    A: np.ndarray
    c: np.ndarray
    moments: np.ndarray
    mu_Q: float
    degree: int
    nodes: NodeSet
    eps_deg: float
    _F_dd: tuple = field(repr=False, default=())
    _c_tilde_dd: tuple = field(repr=False, default=())

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class RuleSolution:
    """Least-squares weights, minimax vector and the correction between them.

    ``z_star == omega + tau`` holds exactly at the double level by
    construction; the private double-double copies preserve the solves'
    full accuracy for residual formation.
    """

    omega: np.ndarray
    z_star: np.ndarray
    tau: np.ndarray
    _omega_dd: tuple = field(repr=False, default=())
    _tau_dd: tuple = field(repr=False, default=())
    _z_dd: tuple = field(repr=False, default=())


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _factor(d):
    """A DD factor as its plain double when that is exact: a cheaper product."""
    return d[0] if d[1] == 0.0 else d


def _moments_dd(ns):
    """mu_0..mu_{2n} in double-double, by the centred moment recurrence."""
    nodes, iv = ns.nodes, ns.interval
    c = 0.5 * iv.a + 0.5 * iv.b
    ua, ub = Fraction(iv.a) - Fraction(c), Fraction(iv.b) - Fraction(c)
    pa = pb = Fraction(1)
    M = []
    for m in range(1, 2 * len(nodes) + 2):
        pa *= ua
        pb *= ub
        M.append(from_fraction((pb - pa) / m))
    mom = [M[0]]
    for t in nodes + nodes:
        f = _factor(exact_diff(c, t))
        M = [M[m + 1] + M[m] * f for m in range(len(M) - 1)]
        mom.append(M[0])
    return mom


def _node_products_dd(nodes):
    """Rows of A, phi_i(t_j), as running products of exact node differences."""
    n = len(nodes)
    rows = [(ONE,) * n]
    for i in range(1, n):
        prev, s = rows[-1], nodes[i - 1]
        rows.append((ZERO,) * i + tuple(
            prev[j] * _factor(exact_diff(nodes[j], s)) for j in range(i, n)
        ))
    return rows


def _detect(ext_dd, n, eps):
    """First index j >= n with |mu_j| above the threshold."""
    for i, m in enumerate(ext_dd):
        if abs(float(m)) > eps:
            return n + i - 1, m
    raise DegreeOverflowError(
        f"degree overflow: no extended moment above {eps:g} through index {2 * n}; "
        "the zero threshold is misconfigured (degree <= 2n-1 is guaranteed)"
    )


def _moments_and_degree(ns, eps_deg):
    """(mu_0..mu_2n in DD, threshold, degree, mu_Q in DD) for a node set."""
    mom_dd = _moments_dd(ns)
    eps = _default_eps_deg(float(mom_dd[0])) if eps_deg is None else float(eps_deg)
    degree, mu_q_dd = _detect(mom_dd[ns.n:], ns.n, eps)
    return mom_dd, eps, degree, mu_q_dd


def detect_degree(ns, eps_deg=None):
    """Degree of exactness and principal moment of the rule on ``ns``.

    Scans mu_j = I(q_j) for j = n..2n and returns (j-1, mu_j) at the first
    moment whose magnitude exceeds the zero threshold.
    """
    _, _, degree, mu_q_dd = _moments_and_degree(ns, eps_deg)
    return degree, float(mu_q_dd)


def build_system(ns, eps_deg=None):
    """Assemble the fundamental system for a node set.

    Raises :class:`DegreeOverflowError` if degree detection fails (only
    possible with a misconfigured ``eps_deg``).
    """
    n = ns.n
    mom_dd, eps, degree, mu_q_dd = _moments_and_degree(ns, eps_deg)
    F_dd = _node_products_dd(ns.nodes) + [(ZERO,) * n]
    c_tilde_dd = tuple(mom_dd[:n]) + (mu_q_dd,)

    F = _freeze([[float(e) for e in row] for row in F_dd])
    c_tilde = _freeze([float(m) for m in c_tilde_dd])
    moments = _freeze([float(m) for m in mom_dd])

    return FundamentalSystem(
        F=F,
        c_tilde=c_tilde,
        A=_freeze(F[:n]),
        c=_freeze(c_tilde[:n]),
        moments=moments,
        mu_Q=float(mu_q_dd),
        degree=degree,
        nodes=ns,
        eps_deg=eps,
        _F_dd=tuple(F_dd),
        _c_tilde_dd=c_tilde_dd,
    )


def _solve_upper_dd(rows, rhs):
    """Backward substitution on an upper-triangular double-double system."""
    n = len(rhs)
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        s = rhs[i]
        for j in range(i + 1, n):
            s = s - rows[i][j] * x[j]
        d = rows[i][i]
        if float(d) == 0.0:
            raise SingularDiagonalError(f"singular diagonal at row {i + 1}")
        x[i] = s / d
    return x


def _weights_dd(fs):
    n = fs.n
    return _solve_upper_dd(fs._F_dd[:n], list(fs._c_tilde_dd[:n]))


def solve_weights(fs):
    """Weights of the rule: backward substitution on A w = c.

    By construction this unique solution is also the least-squares solution
    of the full (n+1)-row system.
    """
    return _freeze([float(w) for w in _weights_dd(fs)])


def _as_dd_vector(x, n):
    """Coerce a vector (doubles or DD entries) to a DD list of length n."""
    if isinstance(x, RuleSolution):
        raise TypeError("pass solution.omega / solution.z_star, not the solution")
    xs = list(x)
    if len(xs) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(xs)}")
    return [as_dd(v) for v in xs]


def _residual_dd(fs, x_dd):
    """r(x) = F x - c_tilde, formed in double-double."""
    n = fs.n
    r = []
    for i in range(n + 1):
        s = ZERO
        row = fs._F_dd[i]
        for j in range(min(i, n), n):  # row i has zeros left of column i
            s = s + row[j] * x_dd[j]
        r.append(s - fs._c_tilde_dd[i])
    return r


def residual(fs, x):
    """Residual vector F x - c_tilde (length n+1) for any candidate x.

    When ``x`` is a plain double vector the residual is exact for those
    doubles; the solver-side callers pass the internal double-double
    solutions so that the components that should vanish actually do, far
    below |mu_Q|.
    """
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], DD):
        x_dd = list(x)
    else:
        x_dd = _as_dd_vector(x, fs.n)
    return _freeze([float(v) for v in _residual_dd(fs, x_dd)])


def residual_norms(r, p_list=(1, 2, 3, math.inf)):
    """p-norms of a residual vector, plain-double reductions.

    Returns a dict keyed by the requested p (use ``math.inf`` for the max
    norm).
    """
    r = np.asarray(r, dtype=float)
    out = {}
    for p in p_list:
        if p == math.inf:
            out[p] = float(np.max(np.abs(r))) if r.size else 0.0
        else:
            out[p] = float(np.sum(np.abs(r) ** p) ** (1.0 / p))
    return out
