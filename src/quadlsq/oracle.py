"""Independent verification paths for the floating pipeline.

Four deliberately different routes to the same quantities:

* ``lsq_normal_equations`` -- least squares through the explicit normal
  system F^T F y = F^T c, eliminated in double-double by rank-1 updates on
  arrays, its last rows by ``dd_dot`` rows.  Verification only:
  it squares the conditioning of A, which is why the triangular route is
  the production path, and it declines where that leaves no accuracy.
* ``degree_by_monomials`` -- degree of exactness straight from the
  definition, testing the rule mapped to (-1, 1) against 1, y, y^2, ...
  monomial by monomial.
* ``rational_pipeline`` -- the entire basis/system/weights/degree pipeline
  re-run in exact rational arithmetic, carried on Python integers: with D
  the lcm of the node and endpoint denominators, X = D x puts every node on
  an integer T_i, so the basis polynomials (:func:`quadlsq.basis._basis`)
  have integer coefficients in X, each moment is an integer over L D^(j+1)
  (L = lcm(1..2n+1)), each entry of A an integer over D^i, and each weight
  an integer over L D prod_{m != k}(T_k - T_m).  The degree and mu_Q come
  from zero tests on integer numerators, so the extension q_n, q_{n+1}, ...
  is built only up to the first nonzero moment, and only mu_Q and the
  weights are reduced to Fractions, one gcd each.  A, c and the moments are
  built, and reduced, when first read.
* ``direct_sis4_minimax`` -- the minimax solution from eliminating the full
  (n+1) x (n+1) system with the residual magnitude as an extra unknown,
  instead of the correction-vector route, in doubles by LAPACK.

The oracle reads the pipeline's double-double store (``A_dd``,
``leading_dd``) or its doubles, and imports nothing from :mod:`quadlsq.system`.
It shares the float-pair primitives and ``_ceil_log2`` of :mod:`quadlsq.ddouble`
(``dd_dot``, the row of the pipeline's moment recurrence, whose bits its
fused solve and residual rows give each vector; ``dd_mul`` and ``dd_add``
also on arrays), the record types and input checks of :mod:`quadlsq.basis`
(the one reader of a sequence passed in, the node and interval checks) and
its integer forms (the integer basis, which the pipeline never forms, and
the grid X = D x, power chain and exact Horner of its moment starts), the
sums, maxima and closed-form ||A^-1||_inf of :mod:`quadlsq.analysis`, and
the exception types of :mod:`quadlsq.errors`.

The normal equations and the direct elimination run on numpy arrays and
import numpy when called; the monomial check runs on Python floats and the
stdlib, and neither it, the exact route nor importing this module loads it.

The exact route also computes its quantities by other formulas than the
pipeline, so that a wrong derivation cannot show up on both sides: moments
from the monomial coefficients of each basis polynomial (the pipeline runs
the modified-moment recurrence), A by Horner's rule on those coefficients
(the pipeline multiplies running node differences), and the weights by
integrating each Lagrange polynomial (the pipeline solves A w = c by
backward substitution).
"""

import math
import numbers
import operator
from functools import cached_property
from itertools import chain, islice

from .basis import (
    Interval, NodeSet, _Record, _basis, _checked_interval, _checked_nodes, _horner, _on_grid,
    _power_differences, _vector,
)
from .analysis import _fsum, _max, _norm_inf_inverse
from .ddouble import _ceil_log2, dd_add, dd_div, dd_dot, dd_mul, split_operand
from .errors import DegreeOverflowError, NumericalFailure, SingularSystemError

#: The monomial check's own zero threshold: 1e-12 mu_0, with mu_0 = 2 on (-1, 1).
_MONOMIAL_EPS = 2e-12


# ---------------------------------------------------------------------------
# exact rational pipeline
# ---------------------------------------------------------------------------

def _as_fractions(values, what="irrational nodes", spec="node spec"):
    """Exact Fractions, as a tuple, from ints, Fractions, strings, (num, den)
    pairs of integers, floats or numpy scalars; a non-finite one is kept as
    a float, for the node or interval check to reject, and any other value
    is the ``ValueError`` "<what>: cannot parse ..." or "<what>: unsupported
    <spec> ...".

    Floats are converted exactly, whatever their exponent: every finite
    double is a binary rational.  The other forms may need integers of any
    size.  numpy scalars are recognised without importing numpy: numpy
    registers its integers as ``numbers.Integral`` and its floating types
    as ``numbers.Real``, and these have ``as_integer_ratio``.  ``fractions``
    is imported once per call, not once per value.
    """
    from fractions import Fraction

    def exact(value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, numbers.Integral):
            return Fraction(int(value))
        if isinstance(value, numbers.Real):
            try:
                return Fraction(*value.as_integer_ratio())
            except (OverflowError, ValueError):  # inf or nan
                return float(value)
        try:
            if isinstance(value, str):
                return Fraction(value)
            if (isinstance(value, tuple) and len(value) == 2
                    and all(isinstance(v, numbers.Integral) for v in value)):
                return Fraction(int(value[0]), int(value[1]))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what}: cannot parse {value!r}") from None
        raise ValueError(f"{what}: unsupported {spec} {value!r}")

    return tuple(map(exact, values))


def _as_fraction(value):
    """One interval endpoint through :func:`_as_fractions`, its errors
    naming an endpoint."""
    return _as_fractions((value,), "interval endpoint", "spec")[0]


def _scaled(nodes, a, b):
    """(D, T, L, S) for rational nodes on (a, b).

    X = D x (:func:`quadlsq.basis._on_grid`) puts every node and endpoint
    on the integers, T_i = D t_i.  S[k] = L/(k+1) (hi^(k+1) - lo^(k+1))
    with L = lcm(1..2n+1) and lo, hi = D a, D b, so that for an integer
    polynomial p of degree j in X, the integral of p(Dx) over (a, b) is
    sum_k p_k S[k] / (L D^(j+1)); p(Dx) = D^j phi_j(x) for the basis.
    """
    D, (lo, hi, *T) = _on_grid((a, b, *nodes))
    L = math.lcm(*range(1, 2 * len(T) + 2))
    S = [L // k * dk for k, dk in zip(range(1, 2 * len(T) + 2), _power_differences(lo, hi))]
    return D, T, L, S


class RationalRule(_Record):
    """Exact analysis of a rule with rational nodes; all entries Fractions.

    ``interval`` is (a, b).  ``A``, ``c`` and ``moments`` (mu_0 .. mu_{2n})
    are built from the nodes and the interval on first read, and cached,
    from one pass of :func:`_scaled` and :func:`_basis` that they share;
    the degree, mu_Q and the weights do not need them.
    """

    __match_args__ = ("nodes", "interval", "mu_Q", "degree", "weights")

    def __init__(self, nodes: tuple, interval: tuple, mu_Q: "Fraction", degree: int,
                 weights: tuple):
        vars(self).update(nodes=nodes, interval=interval, mu_Q=mu_Q, degree=degree,
                          weights=weights)

    @cached_property
    def _scaled_basis(self):
        """(D, T, L, S, basis): the scaled integers of :func:`_scaled` and all
        of phi_0..phi_{n-1}, q_n..q_{2n}, built once for ``A`` and
        ``moments``."""
        D, T, L, S = _scaled(self.nodes, *self.interval)
        return D, T, L, S, tuple(_basis(T))

    @cached_property
    def A(self):
        """A[i][j] = phi_i(t_j), zero below the diagonal: Horner's rule on
        the coefficients of phi_i."""
        from fractions import Fraction

        D, T, _, _, basis = self._scaled_basis
        n, zero = len(T), Fraction(0)
        return tuple(
            tuple(Fraction(_horner(phi, T[j]), D ** i) if j >= i else zero for j in range(n))
            for i, phi in enumerate(basis[:n]))

    @cached_property
    def moments(self):
        from fractions import Fraction

        D, _, L, S, basis = self._scaled_basis
        return tuple(Fraction(sum(map(operator.mul, p, S)), L * D ** len(p)) for p in basis)

    @cached_property
    def c(self):
        return self.moments[:len(self.nodes)]


def rational_pipeline(nodes, interval=None):
    """Run basis construction, degree detection and the weight solve exactly.

    ``nodes`` may be a :class:`NodeSet` (its doubles are interpreted as the exact
    binary rationals they are, on its interval, which an ``interval`` passed
    beside it must equal exactly) or a sequence of ints, Fractions, ``num/den`` /
    decimal strings, ``(num, den)`` pairs of integers, floats, or numpy integer
    and floating scalars, on (-1, 1) by default.  ``interval`` is a
    :class:`quadlsq.Interval` or an (a, b) pair whose endpoints take the same
    forms as the nodes.  Degree detection uses exact zero tests, so feeding
    rounded nodes of an irrational family verifies the floating pipeline on
    those exact inputs, not the ideal rule.  The nodes and the interval are read
    as :class:`NodeSet` reads its nodes, entries left exact, and pass the checks
    of :class:`NodeSet` and :class:`quadlsq.Interval`, so an input those reject
    (text, a mapping, a set, an interval that is not a pair, ...) raises the
    same ``ValueError``; a node of none of these forms raises an "irrational
    nodes" ``ValueError``, an endpoint an "interval endpoint" one.
    """
    from fractions import Fraction

    if isinstance(interval, Interval):
        interval = (interval.a, interval.b)
    if interval is not None:
        interval = _vector(interval, 2, entry=None, what="the interval (a, b) as a vector")
    if isinstance(nodes, NodeSet):
        own = (nodes.interval.a, nodes.interval.b)
        if interval is not None and _as_fractions(interval) != own:
            raise ValueError(f"interval {tuple(interval)} differs from the node set's {own}")
        nodes, interval = nodes.nodes, own
    elif interval is None:
        interval = (-1, 1)
    ts = _checked_nodes(_as_fractions(_vector(nodes, entry=None, what="a vector of nodes")))
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

    # Lagrange weights: l_k(x) = r_k(X) / ell'(T_k), with r_k = ell / (X - T_k),
    # whose coefficients are r_i = sum_{j > i} ell_j T_k^(j-1-i).  The
    # integral's numerator sum_i r_i S_i is then g(T_k), with
    # g_m = sum_{j > m} ell_j S_{j-1-m} formed once for all the nodes.
    g = [sum(map(operator.mul, ell[m + 1:], S)) for m in range(n)]
    dell = [i * c for i, c in enumerate(ell)][1:]
    w = tuple(Fraction(_horner(g, tk), L * D * _horner(dell, tk)) for tk in T)

    return RationalRule(nodes=ts, interval=(a, b), mu_Q=mu_q, degree=j - 1, weights=w)


# ---------------------------------------------------------------------------
# dense eliminations
# ---------------------------------------------------------------------------

#: u_DD = 7 u^2, one DD operation's error (Joldes, Muller & Popescu, ACM TOMS 44, 2017)
_U_DD = 7.0 * 2.0 ** -106

#: the rows :func:`lsq_normal_equations` leaves to its scalar ``dd_dot`` rows
_SCALAR_ROWS = 10


def _solve_dense(M, rhs):
    """M x = rhs by LAPACK's backward-stable LU with partial pivoting, so x is
    within about cond(M) u of the solution (Higham, 2nd ed., ch. 9).  With no
    pivot floor, only an exactly zero pivot raises SingularSystemError."""
    import numpy as np

    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"numerically singular: {exc}") from None


def _scale_exponent(interval):
    """e with 2^e the smallest power of two >= the half-length (b - a) / 2;
    2^e >= max |t_i - c| as well raised cond(SA) on 166 of 300 random node
    sets, whose weights then erred by up to 2.6e-9 relative (1.1e-16 here)."""
    return _ceil_log2(interval.rad)


def _normal_system(fs):
    """[G | b] = (SA)^T [SA | Sc] as (hi, lo) arrays of shape (n, n + 1),
    with S = diag(2^(-e i)) and e from :func:`_scale_exponent`.

    F^T [F | c_tilde] = A^T [A | c] (F's last row is zero).  Row i of A
    is of the order of the half-length to the power i, and mu_i one power
    more, so the scaled rows are of one order and G's conditioning does not
    grow like (b - a)^(-2(n-1)) on a short interval.  The scaling is exact (``ldexp``)
    and leaves the solution of SA w = Sc, the weights, as it is.  Then
    ``dd_mul`` on broadcast n x n x (n + 1) arrays of the products over k,
    and a pairwise tree of ``dd_add`` that adds the upper half of the k
    rows onto the lower half until one is left.  Elementwise, the
    primitives give the scalar bits."""
    import numpy as np

    n = fs.n
    fc = np.zeros((2, n, n + 1))
    for i, row in enumerate(fs.A_dd):
        fc[:, i, i:n] = np.transpose(row)
    fc[:, :, n] = np.transpose(fs.leading_dd[:n])
    e = _scale_exponent(fs.nodes.interval)
    with np.errstate(over="ignore", invalid="ignore"):
        fc = np.ldexp(fc, -e * np.arange(n)[:, None])
        ph, pl = dd_mul(fc[0, :, :n, None], fc[1, :, :n, None], fc[0, :, None], fc[1, :, None])
        m = n
        while m > 1:
            h = m // 2
            ph[:h], pl[:h] = dd_add(ph[:h], pl[:h], ph[m - h:m], pl[m - h:m])
            m -= h
    return ph[0], pl[0]


def lsq_normal_equations(fs):
    """Least-squares weights through the normal system F^T F y = F^T c_tilde,
    on the scaled rows of :func:`_normal_system`.

    Declines with :class:`SingularSystemError` where cond_inf(SA)^2 u_DD >= 1,
    beyond which double-double cannot tell the Gram matrix G from a
    singular one, or where [G | b] is not finite.  SA is the A of the nodes
    2^(-e) t, so its ||(SA)^-1||_inf has the closed form of
    :func:`quadlsq.analysis.cond_inf_upper`, and with e = 0 the guard is
    that function's cond_inf(A).  G is SPD, so it is eliminated
    in double-double without pivoting, right-looking: while more than
    T = ``_SCALAR_ROWS`` rows are left, the first row of [G | b] is a row
    of U, one ``dd_mul`` on arrays forms its multipliers U[k][i] (1/U[k][k]),
    and ``dd_add(block, dd_mul(m, -U[k]))`` updates the rows below, the
    primitives called on hi/lo arrays as in :func:`_normal_system`.  The
    last T rows run one :func:`quadlsq.ddouble.dd_dot` row per entry of U,
    right-hand column included, from their updated values.  Either way an
    entry takes the products of pivots 0, 1, ..., k-1 in that order, the
    order of ``dd_dot``, so U, the reciprocals and y have the bits of one
    ``dd_dot`` row per entry (the tests compare a frozen copy of that loop,
    kept in ``tests/helpers.py``).  The multipliers take one double-double reciprocal
    per pivot, back-substitution runs one ``dd_dot`` row per unknown, and
    each weight is rounded once.

    T is where an array step, about 60 numpy calls at any size, stops
    undercutting the scalar rows.  The whole call over the benchmark's 176
    node sets (n = 3..24 on (0, 2)), per-set medians of 15 interleaved
    runs summed, forming [G | b] 48 ms of it: 172 ms with every row
    scalar, 178 at T = 0, 159 at 4, 150 at 6, 145 at 8, 143 at 10, 145 at
    12 and 152 at 16 (Python 3.11, numpy 2.4, one core of an Intel Xeon).

    Error bound: forming G and eliminating it perturb G by n gamma_n and
    3 n gamma_n times ||G||_2 (gamma_k = k u_DD / (1 - k u_DD); Higham,
    2nd ed., Thm 9.4 and ch. 10: || |L||U| ||_2 <= n ||G||_2), so with
    eps = 4 n^2 u_DD cond_2(SA)^2 <= 4 n^4 u_DD cond_inf(SA)^2, y is within
    eps / (1 - eps) of the stored system's solution relative to its 2-norm,
    plus u per weight.  The stored A_dd and mu_0..mu_{n-1} add their own
    errors through A^-1.
    """
    import numpy as np

    n = fs.n
    e = _scale_exponent(fs.nodes.interval)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(np.abs(fs.A), -e * np.arange(n)[:, None]).tolist()
        nodes = np.ldexp(fs.nodes.nodes, -e).tolist()
    cond = _max(map(_fsum, scaled)) * _norm_inf_inverse(nodes)
    if not cond * cond * _U_DD < 1.0:
        raise SingularSystemError(
            f"outside the normal equations' range: cond_inf(SA) = {cond:.3g}")
    gh, gl = _normal_system(fs)
    if not (np.isfinite(gh).all() and np.isfinite(gl).all()):
        raise SingularSystemError("outside the normal equations' range: Gram matrix not finite")

    # right-looking steps: the first row of [G | b] is a row of U, and its
    # multipliers' products are added onto the rows below, which become [G | b]
    upper, recips = [], []
    top = max(n - _SCALAR_ROWS, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top):
            upper.append(list(zip(gh[0].tolist(), gl[0].tolist())))
            recips.append(dd_div(1.0, 0.0, *upper[k][0]))
            mh, ml = dd_mul(gh[0, 1:n - k, None], gl[0, 1:n - k, None], *recips[k])
            gh, gl = dd_add(gh[1:, 1:], gl[1:, 1:], *dd_mul(mh, ml, -gh[0, 1:], -gl[0, 1:]))

    # the last rows one by one, row r of [G | b] giving U[top + r]; cols[j]
    # holds -U[k][top + j] of the rows k done, split
    cols = [[] for _ in range(n + 1 - top)]
    for r, (g, e) in enumerate(zip(gh.tolist(), gl.tolist())):
        mult = [dd_mul(*upper[top + k][r - k], *recips[top + k]) for k in range(r)]
        row = [dd_dot(g[j], e[j], mult, cols[j])[-1] for j in range(r, n + 1 - top)]
        recips.append(dd_div(1.0, 0.0, *row[0]))
        upper.append(row)
        for j, (h, l) in enumerate(row, start=r):
            cols[j].append(split_operand(-h, -l))

    # U y = b; ys holds -y[i+1..n-1], split
    y, ys = [], []
    for i in range(n - 1, -1, -1):
        yh, yl = dd_mul(*dd_dot(*upper[i][-1], upper[i][1:n - i], ys)[-1], *recips[i])
        y.append(yh + yl)
        ys.insert(0, split_operand(-yh, -yl))
    return np.array(y[::-1])


def direct_sis4_minimax(fs):
    """Minimax solution by eliminating the system with eps as an unknown.

    Unknowns (z_1..z_n, eps); rows 1..n read  A_i z - eps = mu_{i-1}  and
    the last row  sign(mu_Q) eps = mu_Q, so eps comes out as |mu_Q| > 0.
    """
    import numpy as np

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

def degree_by_monomials(ns, weights):
    """Largest d < 2n with Q(x^k) exact for all k <= d, judged on (-1, 1).

    Exactness survives x = mid + rad y, so the rule is mapped in doubles to
    weights w_i / rad and nodes y_i = (t_i - mid) / rad, the identity on
    (-1, 1).  ``math.fsum`` of (w_i / rad) y_i^k must match the integral of
    y^k, 2/(k+1) for even k and 0 for odd k, within ``_MONOMIAL_EPS`` = 2e-12,
    :func:`quadlsq.build_system`'s default threshold there; a sum that is not
    a finite double is a mismatch.  There must be n weights.  No n-point
    rule integrates q_2n = ell^2 > 0 exactly, so matching every k <= 2n
    raises :class:`quadlsq.DegreeOverflowError` (Gauss-Legendre from n = 21),
    and a half-length that rounds to 0 :class:`quadlsq.NumericalFailure`.
    """
    n, mid, rad = ns.n, ns.interval.mid, ns.interval.rad
    weights = _vector(weights, n)
    if rad == 0.0:
        raise NumericalFailure(f"the half-length of ({ns.interval.a}, {ns.interval.b}) "
                               "rounds to 0: the rule cannot be mapped to (-1, 1)")
    w = [v / rad for v in weights]
    ys = [(t - mid) / rad for t in ns.nodes]
    powers = [1.0] * n
    for k in range(2 * n + 1):
        try:
            approx = math.fsum(map(operator.mul, w, powers))
        except (ValueError, OverflowError):  # inf - inf, or a sum past the double range
            approx = math.nan
        if not abs(approx - (0.0 if k % 2 else 2.0 / (k + 1))) <= _MONOMIAL_EPS:
            return k - 1
        powers = list(map(operator.mul, powers, ys))
    raise DegreeOverflowError(f"degree overflow: y^0..y^{2 * n} all match on (-1, 1) within the "
                              f"zero threshold {_MONOMIAL_EPS:g}, which no {n}-point rule can do")
