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

Every O(n^2) loop here -- the moment recurrence, the running products, the
backward substitution and the residual -- runs on unpacked (hi, lo) float
pairs through the primitives of :mod:`quadlsq.ddouble`, and builds ``DD``
values only for what it stores or returns.  Each loop performs the same
operations in the same order as the same loop written with ``DD``
operators, so every stored value is bit-identical to that form.  The
weights and the correction tau share A, so one backward pass solves both
right-hand sides.  The exact M_0 moments depend on the interval alone and
are memoised per interval (a small bounded cache, filled on first use);
``analysis.build_report`` forms r(omega) once for its norms and the
epsilon self-check.

Moments that overflow the double range (M_0 grows like the half-length to
the power 2n+1) raise :class:`MomentOverflowError` rather than feeding inf
or nan into degree detection.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basis import NodeSet
from .ddouble import (
    DD, ONE, ZERO, as_dd, dd_add, dd_div, dd_mul, dd_mul_d, exact_diff, from_fraction, two_sum,
)
from .errors import DegreeOverflowError, MomentOverflowError, SingularDiagonalError

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


#: Intervals whose exact centred monomial moments are kept (oldest evicted).
_M0_CACHE_SIZE = 16
_m0_cache = {}


def _centred_monomial_moments(a, b, count):
    """M_0[m] = integral over (a, b) of (x - c)^m, m = 0..count-1, as DD.

    Exact as Fractions, rounded once.  The values depend on the endpoints
    alone, so they are memoised per (a, b) and extended when a longer list
    is asked for; every rule on one interval shares them.
    """
    key = (a, b)
    M = _m0_cache.pop(key, ())
    if len(M) < count:
        c = Fraction(0.5 * a + 0.5 * b)
        ua, ub = Fraction(a) - c, Fraction(b) - c
        pa, pb = ua ** len(M), ub ** len(M)
        ext = []
        for m in range(len(M) + 1, count + 1):
            pa *= ua
            pb *= ub
            ext.append(from_fraction((pb - pa) / m))
        M += tuple(ext)
    if len(_m0_cache) >= _M0_CACHE_SIZE:
        del _m0_cache[next(iter(_m0_cache))]
    _m0_cache[key] = M  # re-inserted last: the least recently used goes first
    return M[:count]


def _moments_dd(ns):
    """mu_0..mu_{2n} in double-double, by the centred moment recurrence."""
    nodes, iv = ns.nodes, ns.interval
    c = 0.5 * iv.a + 0.5 * iv.b
    M0 = _centred_monomial_moments(iv.a, iv.b, 2 * len(nodes) + 1)
    H = [m[0] for m in M0]
    L = [m[1] for m in M0]
    mom = [M0[0]]
    size = len(M0)
    for t in nodes + nodes:
        fh, fl = exact_diff(c, t)
        size -= 1
        if fl == 0.0:  # the difference is a double: the cheaper product
            for m in range(size):
                ph, pl = dd_mul_d(H[m], L[m], fh)
                H[m], L[m] = dd_add(H[m + 1], L[m + 1], ph, pl)
        else:
            for m in range(size):
                ph, pl = dd_mul(H[m], L[m], fh, fl)
                H[m], L[m] = dd_add(H[m + 1], L[m + 1], ph, pl)
        mom.append(DD(H[0], L[0]))
    return mom


def _node_products_dd(nodes):
    """Rows of A, phi_i(t_j), as running products of exact node differences."""
    n = len(nodes)
    H, L = [1.0] * n, [0.0] * n
    rows = [(ONE,) * n]
    for i in range(1, n):
        s = nodes[i - 1]
        for j in range(i, n):
            dh, dl = two_sum(nodes[j], -s)  # exact_diff, without a DD per entry
            if dl == 0.0:
                H[j], L[j] = dd_mul_d(H[j], L[j], dh)
            else:
                H[j], L[j] = dd_mul(H[j], L[j], dh, dl)
        rows.append((ZERO,) * i + tuple(map(DD, H[i:], L[i:])))
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
    for j, m in enumerate(mom_dd):
        if not math.isfinite(m[0] + m[1]):
            iv = ns.interval
            raise MomentOverflowError(
                f"moment mu_{j} is not finite: the centred monomial moments "
                f"overflow the double range on an interval of half-length "
                f"{0.5 * (iv.b - iv.a):g} at n = {ns.n}, so neither the degree "
                "nor mu_Q can be read"
            )
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


def _back_substitute(rows, rhss):
    """Backward substitution on an upper-triangular double-double system,
    for several right-hand sides in one pass over the rows.

    ``rows`` and each right-hand side hold DD values; the solutions come
    back as lists of (hi, lo) float pairs.  Each right-hand side sees the
    same operations, in the same order, as if it were solved alone.
    """
    n = len(rows)
    xs = [[None] * n for _ in rhss]
    for i in range(n - 1, -1, -1):
        row = rows[i]
        dh, dl = row[i]
        if dh + dl == 0.0:
            raise SingularDiagonalError(f"singular diagonal at row {i + 1}")
        for x, rhs in zip(xs, rhss):
            sh, sl = rhs[i]
            for j in range(i + 1, n):
                ah, al = row[j]
                xh, xl = x[j]
                ph, pl = dd_mul(ah, al, xh, xl)
                sh, sl = dd_add(sh, sl, -ph, -pl)
            x[i] = dd_div(sh, sl, dh, dl)
    return xs


def _solve_upper_dd(rows, rhs):
    """Backward substitution on an upper-triangular double-double system."""
    return [DD(*p) for p in _back_substitute(rows, [rhs])[0]]


def _solve_dd(fs):
    """(omega, tau) as DD lists: A w = c and A tau = |mu_Q| v, one pass."""
    n = fs.n
    rhs_tau = [abs(fs._c_tilde_dd[n])] * n
    w, t = _back_substitute(fs._F_dd[:n], [fs._c_tilde_dd[:n], rhs_tau])
    return [DD(*p) for p in w], [DD(*p) for p in t]


def solve_weights(fs):
    """Weights of the rule: backward substitution on A w = c.

    By construction this unique solution is also the least-squares solution
    of the full (n+1)-row system.
    """
    return _freeze([float(w) for w in _solve_dd(fs)[0]])


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
        sh, sl = 0.0, 0.0
        row = fs._F_dd[i]
        for j in range(min(i, n), n):  # row i has zeros left of column i
            ah, al = row[j]
            xh, xl = x_dd[j]
            ph, pl = dd_mul(ah, al, xh, xl)
            sh, sl = dd_add(sh, sl, ph, pl)
        ch, cl = fs._c_tilde_dd[i]
        r.append(DD(*dd_add(sh, sl, -ch, -cl)))
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
