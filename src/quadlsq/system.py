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
  M_j[m] = integral of P_j(x) (x - c)^m, M_0[m] is computed exactly from
  integers and rounded once, then M_j[m] = M_{j-1}[m+1] - (r_j - c)
  M_{j-1}[m], and mu_j = M_j[0].  mu_J needs only the anti-diagonal
  M_j[J - j], j <= J, so the recurrence yields the moments one at a time, in O(J) per moment,
  and degree detection pulls them only as far as mu_Q;
* A: phi_i(t_j) = phi_{i-1}(t_j) (t_j - t_i), a running product down each
  column of A from phi_0 = 1.

Every node difference is formed exactly by a two-sum.  Centring keeps the
terms of the moment recurrence as small as the interval allows, so a
shifted interval loses no more digits than one of the same length
centred at 0.

Each result type is its double-double store and nothing it can derive.
The system keeps its nodes, its zero threshold, ``A_dd``, the rows of A as
(hi, lo) float pairs without their structural zeros (row i holds columns
i..n-1), and ``leading_dd``, mu_0..mu_{d+1} as pairs, its one moment store
(c = mu_0..mu_{n-1} and mu_Q = mu_{d+1}; the degree d is its length less
two); a solution keeps omega and tau.  The public doubles are hi + lo of
the store, the IEEE addition ``float(DD)`` performs, or derived from those
(``F``, ``c_tilde``, ``z_star = omega + tau``).  One backward pass solves
omega and tau, and one routine forms the residuals of two vectors, each
in one walk of A; a vector passed in is read, its shape and length
checked, by the one reader of a sequence, :func:`quadlsq.basis._vector`.  A residual's norms and the
epsilon self-check are :mod:`quadlsq.analysis`'s.
The report path reads the store with the stdlib alone; numpy is imported
only where a public array view (``A``, ``c``, ``omega``, ``residual()``'s
return, ...) is first built, by :func:`_freeze`.

Every O(n^2) loop here -- the moment recurrence, the running products, the
backward substitution and the residual -- runs on (hi, lo) float pairs
with the double-double arithmetic of :mod:`quadlsq.ddouble` written out.
Each factor or solution entry is split once.  Each anti-diagonal of the
moment recurrence is the list of running sums of one
:func:`quadlsq.ddouble.dd_dot` over the one before.  The backward pass and
the residual serve two vectors per walk of A: each row is one
:func:`quadlsq.ddouble.dd_dot2`, which splits each entry of A once and
gives each vector the bits of its own ``dd_dot`` row.  The running
products inline the two-product (Dekker's split, the one form on every
interpreter).  Each loop performs the operations of
``dd_mul`` then ``dd_add`` in their order (the backward pass on the
negated entry, whose product is the negated product up to the sign of an
exact zero, which no sum passes on), so every stored value is
bit-identical to the same loop written with the primitives or with ``DD``
operators.  A product by a double is the full ``dd_mul`` with lo = 0, as
everywhere.

The starts M_0[m] are computed as the scan pulls them and kept nowhere.

Moments that overflow the double range (M_0 grows like the half-length to
the power 2n+1) raise :class:`MomentOverflowError` rather than feeding inf
or nan into degree detection, and they do so whether or not the overflow
lies past mu_Q: the scan stops at mu_Q only where the a-priori bound
|M_j[m]| <= 2 max(R0, 1) max(R0 + R, 1)^{2n} for j + m <= 2n, with
R0 = max(|a - c|, |b - c|) and R = max |c - t_i| (derived, with its
roundings, at :func:`_profile_stays_finite`), keeps every value of the
recurrence below 2^996, where the Dekker split of the two-product still
cannot overflow.  Elsewhere it runs on to mu_2n, so a
profile that overflows fails at the same index whether its degree shows
early or not.  A negative or non-finite ``eps_deg`` is an input error and
raises ``ValueError``.
"""

import math
import numbers
from functools import cached_property
from itertools import islice

from .basis import NodeSet, _Record, _on_grid, _power_differences, _repr, _vector
from .ddouble import (
    _SPLITTER, _ceil_log2, dd_add, dd_div, dd_dot, dd_dot2, dd_ratio, split_operand,
    split_operands, two_sum,
)
from .errors import (
    DegreeOverflowError, MomentOverflowError, NumericalFailure, SingularDiagonalError,
)

#: Relative zero threshold for degree detection, scaled by max(1, b - a),
#: the interval's width, which is mu_0.
#: It must sit below the smallest genuine principal moment in scope
#: (Gauss-Legendre at 17 nodes: ~1.8e-10) and far above the double-double
#: noise floor of the moment accumulation (~1e-30).
DEFAULT_EPS_DEG = 1e-12


def _default_eps_deg(width):
    return DEFAULT_EPS_DEG * max(1.0, abs(width))


def _freeze(a):
    """A read-only numpy array of doubles: numpy is imported here, when a
    public array view is first built, and nowhere on the report path."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _hi_plus_lo(pairs):
    """hi + lo of each (hi, lo) pair, as a list of doubles."""
    return [h + l for h, l in pairs]


def _round(pairs):
    """hi + lo of each (hi, lo) pair, as a read-only array of doubles."""
    return _freeze(_hi_plus_lo(pairs))


class FundamentalSystem(_Record):
    """F w = c_tilde for one node set, kept as its double-double store.

    The fields are the store: ``A_dd`` and ``leading_dd`` (mu_0..mu_{d+1},
    the moments the system reads), with the nodes and the zero threshold.
    The degree d is read from the moment store, ``A``, ``mu_Q`` and the
    other read-only doubles are rounded from it or derived from those.
    """

    __match_args__ = ("nodes", "eps_deg", "A_dd", "leading_dd")

    def __init__(self, nodes: NodeSet, eps_deg: float, A_dd: tuple, leading_dd: tuple):
        vars(self).update(nodes=nodes, eps_deg=eps_deg, A_dd=A_dd, leading_dd=leading_dd)

    def __repr__(self):
        return _repr(self, ("A", "mu_Q", "degree", "nodes", "eps_deg"))

    @property
    def n(self):
        return len(self.A_dd)

    @property
    def degree(self):  # leading_dd is mu_0..mu_{d+1}
        return len(self.leading_dd) - 2

    @property
    def mu_Q(self):  # mu_{d+1}
        h, l = self.leading_dd[-1]
        return h + l

    @cached_property
    def A(self):  # upper triangular, zero below the diagonal
        return _freeze([[0.0] * i + _hi_plus_lo(row) for i, row in enumerate(self.A_dd)])

    @cached_property
    def c(self):  # mu_0..mu_{n-1}
        return _round(self.leading_dd[:self.n])

    @cached_property
    def F(self):  # A with a zero row appended
        return _freeze([*self.A.tolist(), [0.0] * self.n])

    @cached_property
    def c_tilde(self):  # c followed by mu_Q
        return _round(self.leading_dd[:self.n] + self.leading_dd[-1:])


class RuleSolution(_Record):
    """Least-squares weights, minimax vector and the correction between them.

    The fields are the store: omega and tau as (hi, lo) pairs, at the
    solves' full accuracy for residual formation.  ``_doubles`` holds
    omega and tau as hi + lo of the pairs and z* as ``omega + tau`` in
    doubles, so that identity holds exactly, as lists of Python floats;
    the read-only arrays ``omega``, ``tau`` and ``z_star`` hold the same
    doubles.  ``_z_dd`` is the pairs' double-double sum.
    """

    __match_args__ = ("_omega_dd", "_tau_dd")

    def __init__(self, _omega_dd: tuple, _tau_dd: tuple):
        vars(self).update(_omega_dd=_omega_dd, _tau_dd=_tau_dd)

    def __repr__(self):
        return _repr(self, ("omega", "z_star", "tau"))

    @cached_property
    def _doubles(self):  # (omega, tau, z_star) as lists of doubles
        omega, tau = _hi_plus_lo(self._omega_dd), _hi_plus_lo(self._tau_dd)
        return omega, tau, [w + t for w, t in zip(omega, tau)]

    @cached_property
    def omega(self):
        return _freeze(self._doubles[0])

    @cached_property
    def tau(self):
        return _freeze(self._doubles[1])

    @cached_property
    def z_star(self):
        return _freeze(self._doubles[2])

    @cached_property
    def _z_dd(self):
        return tuple(dd_add(*w, *t) for w, t in zip(self._omega_dd, self._tau_dd))


def _centred_monomial_moments(interval):
    """M_0[m] = integral over (a, b) of (x - c)^m, c = ``interval.mid``, for
    m = 0, 1, 2, ... as (hi, lo) pairs, each computed when it is pulled.

    On the grid X = D x of :func:`quadlsq.basis._on_grid`, A = D (a - c) and
    B = D (b - c) are integers, and M_0[m] = (B^{m+1} - A^{m+1}) /
    ((m + 1) D^{m+1}) is rounded once by :func:`quadlsq.ddouble.dd_ratio`.
    """
    D, (a, b, c) = _on_grid((interval.a, interval.b, interval.mid))
    dm = D
    for m, num in enumerate(_power_differences(a - c, b - c), start=1):
        yield dd_ratio(num, m * dm) if num else (0.0, 0.0)
        dm *= D


def _iter_moments_dd(ns):
    """mu_0, mu_1, ..., mu_{2n} as (hi, lo) pairs, one per anti-diagonal of
    the centred moment recurrence, each computed when it is pulled.

    mu_J = M_J[0] needs only the anti-diagonal M_j[J - j], j <= J, and
    that anti-diagonal is the running sums of one dot product over the
    one before: M_{j+1}[J-1-j] = M_j[J-j] + (c - r_{j+1}) M_j[J-1-j], so
    from s_0 = M_0[J] the sums s_{j+1} = s_j + M_j[J-1-j] (c - r_{j+1}) are
    M_0[J], M_1[J-1], ..., M_J[0].  :func:`quadlsq.ddouble.dd_dot` returns
    exactly those sums, each step ``dd_mul`` of the level's pair by its
    factor, split once, then ``dd_add``.  Every M_j[m] is formed by the
    same product and sum as in a row-by-row pass, so each moment is the
    same pair whichever way, and however far, the recurrence is run.  A
    factor that is a double takes the same full product with lo = 0 (see
    :func:`quadlsq.ddouble.dd_mul`).
    """
    nodes, iv = ns.nodes, ns.interval
    c = iv.mid
    factors = split_operands(two_sum(c, -t) for t in nodes)
    factors += factors  # the roots r are t_1..t_n twice
    level = []  # M_j on the latest anti-diagonal, level j at index j
    for start in islice(_centred_monomial_moments(iv), len(factors) + 1):
        level = dd_dot(*start, level, factors)
        yield level[-1]


#: An operand above 2^996 turns into nan in the Dekker split, which scales
#: it by 2^27 + 1 (2^996 (2^27 + 1) is within a factor 2^-0.99 of 2^1024).
_SPLIT_EXPONENT = 996


def _profile_stays_finite(ns):
    """True if no value of the moment recurrence through mu_{2n} can exceed
    2^996 (``_SPLIT_EXPONENT``), so that every one of them is finite.

    With R0 = max(|a - c|, |b - c|) (so b - a <= 2 R0 and |M_0[m]| <=
    2 R0^{m+1}) and R = max |c - t_i|, expanding P_j = prod (x - c + c - r_k)
    over the subsets of its roots bounds every value the scan reads,
    j + m <= 2n, every product and sum of a step and every c - t_i by
    |M_j[m]| <= 2 R0^{m+1} (R0 + R)^j <= B = 2 max(R0, 1) max(R0 + R, 1)^{2n}.
    The computed values exceed B by at most (1 + 15 u^2)^{2n} (1 + 3 u),
    u = 2^-53: c - t_i is an exact two-sum, a DD product and a DD sum are
    each within a relative 7 u^2 (Joldes, Muller & Popescu, ACM TOMS 44,
    2017; an underflow adds a few 2^-1074 instead), M_0 is rounded once and
    a split operand hi is within u of its pair; R0, R and R0 + R are
    rounded within (1 + u)^2.  One spare bit of the exponent absorbs all of
    this for n < 2^40, hence the test in integer exponents.  A loose bound
    only sends more scans on to mu_{2n}, which changes no result.
    """
    nodes, iv = ns.nodes, ns.interval
    c = iv.mid
    r0 = max(abs(iv.a - c), abs(iv.b - c))
    spread = r0 + max(abs(c - t) for t in nodes)
    if not math.isfinite(spread):
        return False
    e = 2 + _ceil_log2(max(r0, 1.0)) + 2 * len(nodes) * _ceil_log2(max(spread, 1.0))
    return e <= _SPLIT_EXPONENT


def _node_products_dd(nodes):
    """Rows of A, phi_i(t_j) for j >= i, as running products of exact node
    differences; row i holds the (hi, lo) pairs of columns i..n-1.

    Each step is ``two_sum(t_j, -t_{i-1})`` then ``dd_mul`` of the running
    product by it, written out; a difference that is a double takes the
    same full product with lo = 0 (see :func:`quadlsq.ddouble.dd_mul`).
    """
    n = len(nodes)
    H, L = [1.0] * n, [0.0] * n
    rows = [((1.0, 0.0),) * n]
    for i in range(1, n):
        s = -nodes[i - 1]
        for j in range(i, n):
            t = nodes[j]
            dh = t + s
            v = dh - t
            dl = (t - (dh - v)) + (s - v)
            oh = H[j]
            ol = L[j]
            p = oh * dh
            c = _SPLITTER * oh
            xh = c - (c - oh)
            xl = oh - xh
            c = _SPLITTER * dh
            yh = c - (c - dh)
            yl = dh - yh
            e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
            e += oh * dl + ol * dh
            h = p + e
            H[j] = h
            L[j] = e - (h - p)
        rows.append(tuple(zip(H[i:], L[i:])))
    return tuple(rows)


def _checked_eps_deg(eps_deg):
    """A zero threshold override as a float (None stays None); anything but
    a finite real number >= 0 raises ``ValueError``: a ``bool``, and text or
    a ``Decimal``, which ``float`` would also convert, among them.  numpy
    registers its floating and integer scalars as ``numbers.Real``, not
    its ``bool_``."""
    if eps_deg is None:
        return None
    if isinstance(eps_deg, bool) or not isinstance(eps_deg, numbers.Real):
        raise ValueError(f"eps_deg must be a finite number >= 0, got {eps_deg!r}")
    eps_deg = float(eps_deg)
    if not (math.isfinite(eps_deg) and eps_deg >= 0.0):
        raise ValueError(f"eps_deg must be a finite number >= 0, got {eps_deg!r}")
    return eps_deg


def _leading_moments(ns, eps):
    """mu_0..mu_Q as pairs for the zero threshold ``eps``, pulling moments
    only as far as the scan needs them; mu_Q = mu_{d+1}, d the degree.

    Each moment is checked for finiteness as it arrives.  The scan stops at
    the first j >= n with |mu_j| above the threshold when
    :func:`_profile_stays_finite` proves that no later value of the
    recurrence can overflow; otherwise it runs on through mu_{2n}, so a
    moment that overflows anywhere in the profile still raises
    :class:`MomentOverflowError` at its index.
    """
    n = ns.n
    lead, j_q = [], None
    for j, (h, l) in enumerate(_iter_moments_dd(ns)):
        mu = h + l
        if not math.isfinite(mu):
            raise MomentOverflowError(
                f"moment mu_{j} is not finite: the centred monomial moments "
                f"overflow the double range on an interval of half-length "
                f"{ns.interval.rad:g} at n = {n}, so neither the degree "
                "nor mu_Q can be read"
            )
        if j_q is None:
            lead.append((h, l))
            if j >= n and abs(mu) > eps:
                j_q = j
                if j == 2 * n or _profile_stays_finite(ns):
                    break
    if j_q is None:  # lead holds mu_0..mu_2n
        mu, k = max((abs(h + l), j) for j, (h, l) in enumerate(lead[n:], n))
        raise DegreeOverflowError(
            f"degree overflow: no extended moment mu_{n}..mu_{2 * n} is above the zero "
            f"threshold {eps:g}; the largest is |mu_{k}| = {mu:g}"
        )
    return tuple(lead)


def build_system(ns, eps_deg=None):
    """Assemble the fundamental system for a node set.

    Raises ``ValueError`` for a negative or non-finite ``eps_deg``,
    :class:`quadlsq.NumericalFailure` for an interval whose half-length
    rounds to 0, and :class:`DegreeOverflowError` if no extended moment
    exceeds the zero threshold (one above the rule's |mu_Q|, given or by
    default).
    """
    eps = _checked_eps_deg(eps_deg)
    iv = ns.interval
    if iv.rad == 0.0:
        raise NumericalFailure(f"the half-length of ({iv.a}, {iv.b}) rounds to 0: the "
                               "interval is too short to build a fundamental system on")
    if eps is None:  # the width b - a, which is mu_0
        eps = _default_eps_deg(2.0 * iv.rad)
    lead = _leading_moments(ns, eps)  # a typed row raises here, before A is formed
    return FundamentalSystem(ns, eps, _node_products_dd(ns.nodes), lead)


def _back_substitute(rows, b, c):
    """Backward substitution on upper-triangular rows (row i holds columns
    i..n-1) for the two right-hand sides b and c in one pass, all in
    (hi, lo) pairs: (x, y) with A x = b and A y = c.  Each right-hand side
    sees the operations it would see if solved alone: s - a x_j for
    j = i+1..n-1 in order, as ``dd_add(s, -dd_mul(a, x_j))``, which
    :func:`quadlsq.ddouble.dd_dot2` forms for both from the splits of -x_j
    and -y_j, then one ``dd_div`` by the diagonal entry.
    """
    n = len(rows)
    x, y = [None] * n, [None] * n
    negx, negy = [], []  # split_operand(-x_j), split_operand(-y_j) for j > i
    for i in range(n - 1, -1, -1):
        row = rows[i]
        dh, dl = row[0]
        if dh + dl == 0.0:
            raise SingularDiagonalError(f"singular diagonal at row {i + 1}")
        sh, sl, th, tl = dd_dot2(*b[i], *c[i], row[1:], negx, negy)
        xh, xl = x[i] = dd_div(sh, sl, dh, dl)
        yh, yl = y[i] = dd_div(th, tl, dh, dl)
        negx.insert(0, split_operand(-xh, -xl))
        negy.insert(0, split_operand(-yh, -yl))
    return x, y


def solve_rule(fs):
    """Solve one rule end to end, keeping extended precision internally.

    One backward pass solves A w = c and A tau = |mu_Q| v.  Returns a
    :class:`RuleSolution` that keeps omega and tau as (hi, lo) pairs, which
    feed residual formation, so the equioscillation structure survives
    down to |mu_Q| values near 1e-10; its public vectors are doubles
    rounded from them.
    """
    mh, ml = fs.leading_dd[-1]
    if mh < 0.0 or (mh == 0.0 and ml < 0.0):  # |mu_Q|, as abs(DD) forms it
        mh, ml = -mh, -ml
    w, t = _back_substitute(fs.A_dd, fs.leading_dd, ((mh, ml),) * fs.n)
    return RuleSolution(tuple(w), tuple(t))


def _pair(v):
    """A vector entry as a (hi, lo) pair: a pair (a ``DD`` value among them)
    is kept, a double gets lo = 0."""
    return v if isinstance(v, tuple) else (float(v), 0.0)


def _residual_dd(fs, x, y):
    """(r(x), r(y)), r(v) = F v - c_tilde as (hi, lo) pairs, for x and y
    lists of n pairs, both from one walk of the rows.

    Row i < n of F is row i of A, zero left of column i; row n is zero.
    """
    n, lead = fs.n, fs.leading_dd
    rows = fs.A_dd + ((),)
    c_tilde = lead[:n] + lead[-1:]
    xs, ys = split_operands(x), split_operands(y)
    rx, ry = [], []
    for i, (row, (ch, cl)) in enumerate(zip(rows, c_tilde)):
        sh, sl, th, tl = dd_dot2(0.0, 0.0, 0.0, 0.0, row, xs[i:], ys[i:])
        rx.append(dd_add(sh, sl, -ch, -cl))
        ry.append(dd_add(th, tl, -ch, -cl))
    return rx, ry


def _residuals(fs, x, y):
    """:func:`residual` of x and of y, each a list of doubles rounded once
    from its pair, from one walk of A; x is read first."""
    x = _vector(x, fs.n, _pair)
    y = _vector(y, fs.n, _pair)
    return [_hi_plus_lo(r) for r in _residual_dd(fs, x, y)]


def _residual(fs, x):
    """:func:`residual` as a list of doubles: x is read once and walked as
    both vectors of :func:`_residual_dd`."""
    x = _vector(x, fs.n, _pair)
    return _hi_plus_lo(_residual_dd(fs, x, x)[0])


def residual(fs, x):
    """Residual vector F x - c_tilde (length n+1) for any candidate x.

    When ``x`` is a plain double vector the residual is exact for those
    doubles; the solver-side callers pass the internal (hi, lo) pair
    solutions so that the components that should vanish actually do, far
    below |mu_Q|.
    """
    return _freeze(_residual(fs, x))
