"""Independent verification paths for the floating pipeline.

Four deliberately different routes to the same quantities:

* ``lsq_normal_equations`` -- least squares through the explicit normal
  system F^T F y = F^T c, solved by dense elimination.  Verification only:
  it squares the conditioning of A, which is exactly why the triangular
  route is the production path.  The Gram matrix is symmetric, so only its
  upper triangle is formed, and iterative refinement stops at a fixed point.
* ``degree_by_monomials`` -- degree of exactness straight from the
  definition, testing the rule against 1, x, x^2, ... monomial by monomial.
* ``rational_pipeline`` -- the entire basis/system/weights/degree pipeline
  re-run in exact rational arithmetic, carried on Python integers: with D
  the lcm of the node and endpoint denominators, X = D x puts every node on
  an integer T_i, so the basis polynomials have integer coefficients in X,
  each moment is an integer over L D^(j+1) (L = lcm(1..2n+1)), each entry
  of A an integer over D^i, and each weight an integer over
  L D prod_{m != k}(T_k - T_m).  The degree and mu_Q come from zero tests
  on integer numerators, so the extension q_n, q_{n+1}, ... is built only
  up to the first nonzero moment, and only mu_Q and the weights are reduced
  to Fractions, one gcd each.  A, c and the moments are built, and reduced,
  when first read.
* ``direct_sis4_minimax`` -- the minimax solution from eliminating the full
  (n+1) x (n+1) system with the residual magnitude as an extra unknown,
  instead of the correction-vector route.

The oracle reads the pipeline's double-double store (``A_dd``,
``leading_dd``) or its doubles; it shares only the float-pair primitives
of :mod:`quadlsq.ddouble` (``dd_dot`` among them, the row sum the pipeline's
solve and residual also run) and the NodeSet and Interval input checks.

The exact route also computes its quantities by other formulas than the
pipeline, so that a wrong derivation cannot show up on both sides: moments
from the monomial coefficients of each basis polynomial (the pipeline runs
the modified-moment recurrence), A by Horner's rule on those coefficients
(the pipeline multiplies running node differences), and the weights by
integrating each Lagrange polynomial (the pipeline solves A w = c by
backward substitution).
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .basis import NodeSet, _checked_nodes
from .ddouble import dd_add, dd_dot, split_operands
from .errors import SingularSystemError
from .poly import _checked_interval
from .system import _checked_eps_deg, _default_eps_deg


# ---------------------------------------------------------------------------
# exact rational pipeline
# ---------------------------------------------------------------------------

def _as_fraction(value):
    """Exact Fraction from an int, Fraction, string, (num, den) pair of
    integers, float or numpy scalar; a non-finite one is returned as a
    float, for the node or interval check to reject.

    Floats are converted exactly, whatever their exponent: every finite
    double is a binary rational.  The other forms may need integers of any
    size.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        try:
            return Fraction(*value.as_integer_ratio())
        except (OverflowError, ValueError):  # inf or nan
            return float(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if (isinstance(value, tuple) and len(value) == 2
                and all(isinstance(v, (int, np.integer)) for v in value)):
            return Fraction(int(value[0]), int(value[1]))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"irrational nodes: cannot parse {value!r}") from None
    raise ValueError(f"irrational nodes: unsupported node spec {value!r}")


def _mul_linear(coeffs, root):
    """Ascending integer coefficients of p(X) * (X - root)."""
    out = [0, *coeffs]
    for k, c in enumerate(coeffs):
        out[k] -= root * c
    return out


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _scaled(nodes, a, b):
    """(D, T, L, S) for rational nodes on (a, b).

    X = D x puts every node and endpoint on the integers: D is the lcm of
    their denominators and T_i = D t_i.  S[k] = L/(k+1) (hi^(k+1) -
    lo^(k+1)) with L = lcm(1..2n+1) and lo, hi = D a, D b, so that for an
    integer polynomial p of degree j in X, the integral of p(Dx) over
    (a, b) is sum_k p_k S[k] / (L D^(j+1)); p(Dx) = D^j phi_j(x) for the
    basis.
    """
    D = math.lcm(a.denominator, b.denominator, *(t.denominator for t in nodes))
    T = [t.numerator * (D // t.denominator) for t in nodes]
    lo, hi = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    L = math.lcm(*range(1, 2 * len(T) + 2))
    S = []
    pa = pb = 1
    for k in range(1, 2 * len(T) + 2):
        pa *= lo
        pb *= hi
        S.append(L // k * (pb - pa))
    return D, T, L, S


def _basis(T):
    """Integer coefficients in X of phi_0..phi_{n-1}, then q_n..q_{2n}.

    Each polynomial is the one before times (X - T_r), r running through
    the nodes twice, and is built only when the caller asks for it.
    """
    p = [1]
    yield p
    for t in chain(T, T):
        p = _mul_linear(p, t)
        yield p


@dataclass(frozen=True, eq=False)
class RationalRule:
    """Exact analysis of a rule with rational nodes; all entries Fractions.

    ``interval`` is (a, b).  ``A``, ``c`` and ``moments`` (mu_0 .. mu_{2n})
    are built from the nodes and the interval on first read, and cached,
    from one pass of :func:`_scaled` and :func:`_basis` that they share;
    the degree, mu_Q and the weights do not need them.
    """

    nodes: tuple
    interval: tuple
    mu_Q: Fraction
    degree: int
    weights: tuple

    @cached_property
    def _scaled_basis(self):
        """(D, L, S, basis): the scaled integers of :func:`_scaled` and all
        of phi_0..phi_{n-1}, q_n..q_{2n}, built once for ``A`` and
        ``moments``."""
        D, T, L, S = _scaled(self.nodes, *self.interval)
        return D, T, L, S, tuple(_basis(T))

    @cached_property
    def A(self):
        """A[i][j] = phi_i(t_j), zero below the diagonal: Horner's rule on
        the coefficients of phi_i."""
        D, T, _, _, basis = self._scaled_basis
        n, zero = len(T), Fraction(0)
        return tuple(
            tuple(Fraction(_horner(phi, T[j]), D ** i) if j >= i else zero for j in range(n))
            for i, phi in enumerate(basis[:n]))

    @cached_property
    def moments(self):
        D, _, L, S, basis = self._scaled_basis
        return tuple(Fraction(sum(map(operator.mul, p, S)), L * D ** len(p)) for p in basis)

    @cached_property
    def c(self):
        return self.moments[:len(self.nodes)]


def rational_pipeline(nodes, interval=(Fraction(-1), Fraction(1))):
    """Run basis construction, degree detection and the weight solve exactly.

    ``nodes`` may be a :class:`NodeSet` (its doubles are interpreted as the
    exact binary rationals they are) or a sequence of ints, Fractions,
    ``num/den`` / decimal strings, ``(num, den)`` pairs of integers, floats,
    or numpy integer and floating scalars; the interval endpoints take the
    same forms.  Degree detection uses exact zero tests, so feeding rounded
    nodes of an irrational family verifies the floating pipeline on those
    exact inputs, not the ideal rule.  The nodes and the interval pass the
    checks of :class:`NodeSet` and :class:`quadlsq.Interval`, so an input
    those reject raises the same ``ValueError``; a value of none of these
    forms raises an "irrational nodes" ``ValueError``.
    """
    if isinstance(nodes, NodeSet):
        interval = (nodes.interval.a, nodes.interval.b)
        nodes = nodes.nodes
    ts = _checked_nodes(map(_as_fraction, nodes))
    a, b = _checked_interval(*interval, convert=_as_fraction)
    n = len(ts)
    D, T, L, S = _scaled(ts, a, b)

    # Degree and mu_Q from the first q_j, j >= n, whose integral has a
    # nonzero numerator; q_2n = ell^2 integrates to a positive number.
    polys = _basis(T)
    ell = next(islice(polys, n, None))    # q_n = prod_m (X - T_m)
    for j, q in enumerate(chain([ell], polys), start=n):
        num = sum(map(operator.mul, q, S))
        if num:
            break
    mu_q = Fraction(num, L * D ** (j + 1))

    # Lagrange weights: l_k(x) = r_k(X) / prod_{m != k} (T_k - T_m), where
    # r_k = prod_m (X - T_m) / (X - T_k) by synthetic division.
    w = []
    for k, tk in enumerate(T):
        r = [0] * n
        r[n - 1] = acc = ell[n]
        for i in range(n - 1, 0, -1):
            acc = ell[i] + tk * acc
            r[i - 1] = acc
        scale = math.prod(tk - tm for m, tm in enumerate(T) if m != k)
        w.append(Fraction(sum(map(operator.mul, r, S)), L * D * scale))

    return RationalRule(nodes=ts, interval=(a, b), mu_Q=mu_q, degree=j - 1,
                        weights=tuple(w))


# ---------------------------------------------------------------------------
# dense eliminations
# ---------------------------------------------------------------------------

_PIVOT_FLOOR = 1e-30


def _lu_factor(M):
    """In-place LU with partial pivoting; returns (LU, pivot indices)."""
    M = np.array(M, dtype=float)
    n = M.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if abs(M[p, k]) < _PIVOT_FLOOR:
            raise SingularSystemError(f"numerically singular: pivot {M[p, k]!r}")
        if p != k:
            M[[k, p]] = M[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        M[k + 1:, k] /= M[k, k]
        M[k + 1:, k + 1:] -= np.outer(M[k + 1:, k], M[k, k + 1:])
    return M, piv


def _lu_solve(lu, piv, b):
    n = lu.shape[0]
    x = np.asarray(b, dtype=float)[piv].copy()
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


def _solve_dense(M, rhs):
    """Gaussian elimination with partial pivoting on a copy of (M, rhs)."""
    lu, piv = _lu_factor(M)
    return _lu_solve(lu, piv, rhs)


def lsq_normal_equations(fs):
    """Least-squares weights through the normal system F^T F y = F^T c.

    The Gram system is formed in double-double, eliminated with partial
    pivoting in doubles, then polished by iterative refinement against the
    extended-precision system.  Refinement is what keeps the squared
    conditioning of the normal equations from eating the whole double
    mantissa near n = 12 (plain elimination lands around 1e-7 there).
    Column j of F is nonzero in rows 0..j only, so each dot product runs
    over those terms, in row order, as one :func:`quadlsq.ddouble.dd_dot`
    row with each column split once.  Only the upper triangle of the Gram
    matrix is computed and mirrored: the two-product of ``dd_mul`` is
    exact, so x.y and y.x give the same bits.  The refinement residual
    takes the iterate's doubles as pairs with lo = 0.  Refinement
    takes at most three steps and stops early at a fixed point, once a step
    leaves every bit of the iterate unchanged: each later step would
    compute the same residual and return the same iterate again.
    """
    n, rows = fs.n, fs.A_dd
    cols = [[rows[k][j - k] for k in range(j + 1)] for j in range(n)]
    split_cols = [split_operands(cj) for cj in cols]
    gram_dd = [[None] * n for _ in range(n)]
    for i, ci in enumerate(cols):
        for j in range(i, n):
            gram_dd[i][j] = gram_dd[j][i] = dd_dot(0.0, 0.0, ci, split_cols[j])
    lead = split_operands(fs.leading_dd)
    rhs_dd = [dd_dot(0.0, 0.0, ci, lead) for ci in cols]
    gram = np.array([h + l for row in gram_dd for h, l in row]).reshape(n, n)
    rhs = np.array([h + l for h, l in rhs_dd])

    lu, piv = _lu_factor(gram)
    y = _lu_solve(lu, piv, rhs)
    for _ in range(3):
        ys = split_operands((v, 0.0) for v in y.tolist())
        resid = []
        for (bh, bl), row in zip(rhs_dd, gram_dd):
            sh, sl = dd_dot(0.0, 0.0, row, ys)
            rh, rl = dd_add(bh, bl, -sh, -sl)
            resid.append(rh + rl)
        resid = np.array(resid)
        if not np.any(resid):
            break
        # tobytes, not ==: a step that only flips the sign of a zero is
        # not a fixed point
        y, y_prev = y + _lu_solve(lu, piv, resid), y
        if y.tobytes() == y_prev.tobytes():
            break
    return y


def direct_sis4_minimax(fs):
    """Minimax solution by eliminating the system with eps as an unknown.

    Unknowns (z_1..z_n, eps); rows 1..n read  A_i z - eps = mu_{i-1}  and
    the last row  sign(mu_Q) eps = mu_Q, so eps comes out as |mu_Q| > 0.
    """
    n = fs.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = fs.A
    M[:n, n] = -1.0
    M[n, n] = 1.0 if fs.mu_Q >= 0 else -1.0
    x = _solve_dense(M, fs.c_tilde)
    return x[:n], float(x[n])


# ---------------------------------------------------------------------------
# degree straight from the definition
# ---------------------------------------------------------------------------

def degree_by_monomials(ns, weights, eps_deg=None):
    """Largest d <= 2n with Q(x^k) matching the exact moment for all k <= d.

    The exact monomial moments are computed from the interval endpoints as
    exact rationals, so on (-1, 1) odd k compares against 0 and even k
    against 2/(k+1).  ``eps_deg`` must be a finite number >= 0
    (``ValueError`` otherwise), as for :func:`quadlsq.build_system`.
    """
    ts = np.asarray(ns.nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(ts)
    a = Fraction(ns.interval.a)
    b = Fraction(ns.interval.b)
    eps = _checked_eps_deg(eps_deg)
    if eps is None:
        eps = _default_eps_deg(float(b - a))
    powers = np.ones_like(ts)
    for k in range(2 * n + 1):
        if k > 0:
            powers = powers * ts
        approx = math.fsum(w * powers)
        exact = float((b ** (k + 1) - a ** (k + 1)) / (k + 1))
        if abs(approx - exact) > eps:
            return k - 1
    return 2 * n
