"""Shared helpers: cached rule construction across the four families, exact
rational references for the diagnostics, the frozen Fraction route of the
exact oracle, the frozen scalar-DD reference route for the float-pair
kernels, the frozen row-by-row elimination of the normal-equations
oracle, and the cache, grading and run lists of the honesty ratchets."""

import importlib.util
import json
import math
import random
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import quadlsq as q
from quadlsq.analysis import _fsum, _max, _norm_inf_inverse
from quadlsq.basis import NodeSet
from quadlsq.ddouble import dd_div, dd_dot, dd_mul, split_operand
from quadlsq.oracle import _as_fraction, _as_fractions, _normal_system, _scale_exponent
from quadlsq.system import _iter_moments_dd

FAMILIES = (
    q.Family.NEWTON_COTES,
    q.Family.FEJER1,
    q.Family.CLENSHAW_CURTIS,
    q.Family.GAUSS_LEGENDRE,
)

#: smallest node count each family supports
MIN_N = {
    q.Family.NEWTON_COTES: 2,
    q.Family.FEJER1: 1,
    q.Family.CLENSHAW_CURTIS: 2,
    q.Family.GAUSS_LEGENDRE: 1,
}


@lru_cache(maxsize=None)
def nodeset(family, n):
    return q.generate(q.FamilySpec(family, n))


@lru_cache(maxsize=None)
def solved(family, n):
    """(NodeSet, FundamentalSystem, RuleSolution) for one family rule."""
    ns = nodeset(family, n)
    fs = q.build_system(ns)
    return ns, fs, q.solve_rule(fs)


def moments_dd(ns):
    """mu_0..mu_2n of a node set as (hi, lo) pairs: the whole profile of
    the system's moment recurrence, of which it stores mu_0..mu_Q."""
    return list(_iter_moments_dd(ns))


def family_cases(n_lo, n_hi):
    """(family, n) pairs for every family over an n range, skipping
    counts below a family's minimum."""
    return [
        (fam, n)
        for fam in FAMILIES
        for n in range(n_lo, n_hi + 1)
        if n >= MIN_N[fam]
    ]


def exact_angle(ns):
    """(degree, angle in degrees) of a node set, from exact arithmetic.

    Runs ``rational_pipeline`` on the node set (its doubles read as the
    exact binary rationals they are), solves the correction
    A tau = |mu_Q| v exactly, and forms sin^2 of the angle between omega
    and z* = omega + tau as a Fraction.  The angle is taken as
    asin(sqrt(sin^2)) rather than acos(cos), so that angles far below a
    degree keep their leading digits.
    """
    rr = q.rational_pipeline(ns)
    A, n, mu = rr.A, len(rr.nodes), abs(rr.mu_Q)
    tau = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = mu - sum((A[i][j] * tau[j] for j in range(i + 1, n)), Fraction(0))
        tau[i] = s / A[i][i]
    omega = rr.weights
    z = [w + t for w, t in zip(omega, tau)]
    ww = sum(w * w for w in omega)
    zz = sum(v * v for v in z)
    wz = sum(w * v for w, v in zip(omega, z))
    sin2 = 1 - wz * wz / (ww * zz)
    return rr.degree, math.degrees(math.asin(math.sqrt(sin2)))


def exact_vector_angle(u, v):
    """The angle of :func:`quadlsq.rule_angle` between two double vectors,
    in degrees, from their exact values.

    cos^2 = <u, v>^2 / (||u||^2 ||v||^2) and sin^2 = 1 - cos^2 are
    Fractions; the angle is asin(sqrt(sin^2)) up to 45 degrees and
    acos(sqrt(cos^2)) above, each from a correctly rounded argument, so
    it is accurate to a few units in the last place at any size.
    """
    u = [Fraction(float(x)) for x in u]
    v = [Fraction(float(x)) for x in v]
    uv = sum(x * y for x, y in zip(u, v))
    cos2 = uv * uv / (sum(x * x for x in u) * sum(y * y for y in v))
    sin2 = 1 - cos2
    if sin2 <= cos2:
        return math.degrees(math.asin(math.sqrt(sin2)))
    return math.degrees(math.acos(math.sqrt(cos2)))


def closed_form_inverse(ts):
    """A^-1 of the Newton block in Fractions, from the divided-difference
    weights: A^-1[k][i] = 1 / prod_{m <= i, m != k} (t_k - t_m) for i >= k."""
    ts = [Fraction(t) for t in ts]
    n = len(ts)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        p = Fraction(1)
        for m in range(k):
            p *= ts[k] - ts[m]
        for i in range(k, n):
            if i > k:
                p *= ts[k] - ts[i]
            inv[k][i] = 1 / p
    return inv


def exact_cond_inf(ts):
    """||A||_inf ||A^-1||_inf of the Newton block of nodes ts, exactly.

    A[i][j] = prod_{m < i} (t_j - t_m) for j >= i.  Row k of the closed
    form |A^-1| sums to h / prod_{m < k} |t_k - t_m| with
    h = 1 + (1 + (1 + ...) / |t_k - t_{k+2}|) / |t_k - t_{k+1}|, which is
    evaluated from the innermost term as an unreduced integer ratio: exact,
    and a gcd per step cheaper than Fractions.
    """
    ts = [Fraction(t) for t in ts]
    n = len(ts)
    col = [Fraction(1)] * n
    norm_a = Fraction(0)
    for i in range(n):
        if i:
            for j in range(i, n):
                col[j] *= ts[j] - ts[i - 1]
        norm_a = max(norm_a, sum(abs(v) for v in col[i:]))
    norm_inv = Fraction(0)
    for k in range(n):
        num, den = 1, 1
        for i in range(n - 1, k, -1):
            d = abs(ts[k] - ts[i])
            num, den = den * d.numerator + num * d.denominator, den * d.numerator
        head = math.prod((abs(ts[k] - ts[m]) for m in range(k)), start=Fraction(1))
        norm_inv = max(norm_inv, Fraction(num, den) / head)
    return norm_a * norm_inv


def asymmetric_rational_nodes(seed, n=24):
    """n increasing rationals num/den on (0, 2), one per cell of a jittered grid."""
    rng = random.Random(seed)
    out = []
    for k in range(n):
        den = rng.randint(100, 1000)
        centre = Fraction(2 * k + 1, n) + Fraction(rng.randint(-40, 40), 100 * n)
        out.append(Fraction(round(centre * den), den))
    return out


# ---------------------------------------------------------------------------
# Frozen reference route for the exact oracle
#
# ``ref_rational_pipeline`` is ``quadlsq.rational_pipeline`` as it was before
# its arithmetic moved onto scaled integers: Fraction polynomials, Fraction
# Horner for A and a Fraction backward substitution for the weights.  The
# integer route must return the same Fractions, field for field.  It returns
# a plain record of the seven fields, all computed eagerly, since
# ``RationalRule`` now builds ``A``, ``c`` and ``moments`` when first read.
# ---------------------------------------------------------------------------

def _ref_rat_mul_linear(coeffs, root):
    out = [Fraction(0)] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] -= root * c
        out[k + 1] += c
    return out


def _ref_rat_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_rat_integrate(coeffs, a, b):
    total = Fraction(0)
    pa, pb = Fraction(1), Fraction(1)
    for k, c in enumerate(coeffs):
        pa *= a
        pb *= b
        if c:
            total += c * (pb - pa) / (k + 1)
    return total


def ref_rational_pipeline(nodes, interval=(Fraction(-1), Fraction(1))):
    """Run basis construction, degree detection and the weight solve exactly.

    ``nodes`` may be a :class:`NodeSet` (its doubles are interpreted as the
    exact binary rationals they are) or a sequence of ints, Fractions,
    ``num/den`` / decimal strings, ``(num, den)`` pairs or floats.  Degree
    detection uses exact zero tests, so feeding rounded nodes of an
    irrational family verifies the floating pipeline on those exact inputs,
    not the ideal rule.
    """
    if isinstance(nodes, NodeSet):
        interval = (Fraction(nodes.interval.a), Fraction(nodes.interval.b))
        nodes = nodes.nodes
    ts = list(_as_fractions(nodes))
    for x, y in zip(ts, ts[1:]):
        if not x < y:
            raise ValueError(f"unordered nodes: {x} !< {y}")
    a, b = _as_fraction(interval[0]), _as_fraction(interval[1])
    n = len(ts)

    phis = [[Fraction(1)]]
    for j in range(1, n):
        phis.append(_ref_rat_mul_linear(phis[-1], ts[j - 1]))
    qs = [_ref_rat_mul_linear(phis[-1], ts[n - 1])]
    for j in range(n + 1, 2 * n + 1):
        r = j % n or n
        qs.append(_ref_rat_mul_linear(qs[-1], ts[r - 1]))

    mom = [_ref_rat_integrate(p, a, b) for p in phis]
    ext = [_ref_rat_integrate(q, a, b) for q in qs]
    degree = mu_q = None
    for i, m in enumerate(ext):
        if m != 0:
            degree, mu_q = n + i - 1, m
            break

    A = [[_ref_rat_eval(phis[i], ts[j]) if j >= i else Fraction(0) for j in range(n)]
         for i in range(n)]
    w = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = mom[i]
        for j in range(i + 1, n):
            s -= A[i][j] * w[j]
        w[i] = s / A[i][i]

    return SimpleNamespace(
        nodes=tuple(ts),
        A=tuple(tuple(row) for row in A),
        c=tuple(mom),
        moments=tuple(mom) + tuple(ext),
        mu_Q=mu_q,
        degree=degree,
        weights=tuple(w),
    )


def ref_basis(nodes):
    """P_0..P_2n of the nodes, P_j the product of (x - r) over the first j
    roots r of t_1..t_n, t_1..t_n, as tuples of Fraction coefficients,
    lowest degree first: Fraction products alone, without the integer
    scaling of ``quadlsq.basis``."""
    ts = [Fraction(t) for t in nodes]
    polys = [[Fraction(1)]]
    for r in ts + ts:
        polys.append(_ref_rat_mul_linear(polys[-1], r))
    return tuple(map(tuple, polys))


# ---------------------------------------------------------------------------
# Frozen reference route for the float-pair kernels
#
# ``RefDD`` is the double-double scalar as it was before the arithmetic moved
# into the float-pair primitives of ``quadlsq.ddouble``: the same operator
# bodies, built on two-sum, fast two-sum and two-product helpers.  The
# ``ref_*`` loops are the scalar-DD forms of the O(n^2) kernels in
# ``quadlsq.system``, of the Gauss-Legendre polish in ``quadlsq.nodes`` as
# it was with two Newton steps, and of the scaled monic recurrence that
# the one-step polish and its acceptance check run.
# The kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _ref_fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _ref_two_prod(a, b):
    # Dekker's split on every interpreter, as in quadlsq.ddouble
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class RefDD(tuple):
    """Reference double-double scalar (hi, lo)."""

    __slots__ = ()

    def __new__(cls, hi=0.0, lo=0.0):
        return tuple.__new__(cls, (float(hi), float(lo)))

    def __float__(self):
        return self[0] + self[1]

    def __neg__(self):
        return tuple.__new__(RefDD, (-self[0], -self[1]))

    def __abs__(self):
        if self[0] < 0.0 or (self[0] == 0.0 and self[1] < 0.0):
            return -self
        return self

    def __add__(self, other):
        if isinstance(other, RefDD):
            s, e = _ref_two_sum(self[0], other[0])
            t, f = _ref_two_sum(self[1], other[1])
            e += t
            s, e = _ref_fast_two_sum(s, e)
            e += f
            return tuple.__new__(RefDD, _ref_fast_two_sum(s, e))
        s, e = _ref_two_sum(self[0], float(other))
        e += self[1]
        return tuple.__new__(RefDD, _ref_fast_two_sum(s, e))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefDD):
            return self.__add__(tuple.__new__(RefDD, (-other[0], -other[1])))
        return self.__add__(-float(other))

    def __rsub__(self, other):
        return (-self).__add__(float(other))

    def __mul__(self, other):
        if isinstance(other, RefDD):
            p, e = _ref_two_prod(self[0], other[0])
            e += self[0] * other[1] + self[1] * other[0]
            return tuple.__new__(RefDD, _ref_fast_two_sum(p, e))
        f = float(other)
        p, e = _ref_two_prod(self[0], f)
        e += self[1] * f
        return tuple.__new__(RefDD, _ref_fast_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RefDD):
            other = RefDD(other)
        q1 = self[0] / other[0]
        r = self - other * q1
        q2 = r[0] / other[0]
        r = r - other * q2
        q3 = r[0] / other[0]
        s, e = _ref_fast_two_sum(q1, q2)
        return tuple.__new__(RefDD, _ref_fast_two_sum(s, e + q3))

    def __rtruediv__(self, other):
        return RefDD(other).__truediv__(self)


_REF_ZERO = RefDD(0.0)
_REF_ONE = RefDD(1.0)


def _ref(x):
    """A (hi, lo) pair as a RefDD."""
    return RefDD(x[0], x[1])


def _ref_from_fraction(x):
    try:
        hi = float(x)
    except OverflowError:
        return RefDD(math.inf if x > 0 else -math.inf)
    return RefDD(hi, float(x - Fraction(hi)))


def _ref_factor(a, b):
    """Exact a - b as the plain double when that is exact, else a RefDD."""
    d = _ref_two_sum(a, -b)
    return d[0] if d[1] == 0.0 else RefDD(*d)


def ref_centred_moments(a, b, count):
    """M_0[m] = integral over (a, b) of (x - c)^m, m = 0..count-1, with
    c = 0.5 a + 0.5 b, as exact Fractions: the frozen Fraction route."""
    c = Fraction(0.5 * a + 0.5 * b)
    ua, ub = Fraction(a) - c, Fraction(b) - c
    pa = pb = Fraction(1)
    M = []
    for m in range(1, count + 1):
        pa *= ua
        pb *= ub
        M.append((pb - pa) / m)
    return M


def ref_moments(ns):
    """mu_0..mu_2n by the centred moment recurrence, M_0 rounded from the
    frozen Fraction route."""
    nodes, iv = ns.nodes, ns.interval
    c = 0.5 * iv.a + 0.5 * iv.b
    M = [_ref_from_fraction(x) for x in ref_centred_moments(iv.a, iv.b, 2 * len(nodes) + 1)]
    mom = [M[0]]
    for t in nodes + nodes:
        f = _ref_factor(c, t)
        M = [M[m + 1] + M[m] * f for m in range(len(M) - 1)]
        mom.append(M[0])
    return mom


def ref_node_products(nodes):
    """Rows of A as running products of exact node differences."""
    n = len(nodes)
    rows = [(_REF_ONE,) * n]
    for i in range(1, n):
        prev, s = rows[-1], nodes[i - 1]
        rows.append((_REF_ZERO,) * i + tuple(
            prev[j] * _ref_factor(nodes[j], s) for j in range(i, n)
        ))
    return rows


def ref_solve_upper(rows, rhs):
    """Backward substitution; rows and rhs are (hi, lo) pairs."""
    rows = [[_ref(e) for e in row] for row in rows]
    n = len(rhs)
    x = [_REF_ZERO] * n
    for i in range(n - 1, -1, -1):
        s = _ref(rhs[i])
        for j in range(i + 1, n):
            s = s - rows[i][j] * x[j]
        x[i] = s / rows[i][i]
    return x


def ref_residual(F, c_tilde, x):
    """F x - c_tilde with the zeros left of the diagonal skipped."""
    n = len(x)
    x = [_ref(v) for v in x]
    r = []
    for i in range(n + 1):
        s = _REF_ZERO
        for j in range(min(i, n), n):
            s = s + _ref(F[i][j]) * x[j]
        r.append(s - _ref(c_tilde[i]))
    return r


def ref_normal_products(F, c_tilde):
    """The products of the normal system [G | b] = F^T [F | c_tilde] by
    scalar RefDD operators: entry (i, j) lists F[k][i] (F | c_tilde)[k][j]
    over the rows k.  F is all n+1 rows of (hi, lo) pairs, structural zeros
    included, and c_tilde the n+1 right-hand sides."""
    F = [[_ref(e) for e in row] for row in F]
    cols = list(zip(*F))
    cols_c = cols + [tuple(_ref(e) for e in c_tilde)]
    return [[[x * v for x, v in zip(ci, cj)] for cj in cols_c] for ci in cols]


def ref_normal_system(F, c_tilde):
    """[G | b] of ``oracle.lsq_normal_equations`` as it was formed before the
    normal equations moved to a pairwise sum: each entry the RefDD sum of
    its :func:`ref_normal_products` from zero, in row order."""
    out = []
    for row in ref_normal_products(F, c_tilde):
        sums = []
        for terms in row:
            acc = _REF_ZERO
            for p in terms:
                acc = acc + p
            sums.append(acc)
        out.append(sums)
    return out


def ref_lsq_normal_equations(fs):
    """``oracle.lsq_normal_equations`` as it was before its elimination
    moved onto arrays: the same decline guard and [G | b], then U row by
    row, each entry one ``dd_dot`` row over the rows above, one
    double-double reciprocal per pivot and ``dd_dot`` rows for the
    back-substitution."""
    n = fs.n
    e = _scale_exponent(fs.nodes.interval)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(np.abs(fs.A), -e * np.arange(n)[:, None]).tolist()
        nodes = np.ldexp(fs.nodes.nodes, -e).tolist()
    cond = _max(map(_fsum, scaled)) * _norm_inf_inverse(nodes)
    if not cond * cond * 7.0 * 2.0 ** -106 < 1.0:
        raise q.SingularSystemError(
            f"outside the normal equations' range: cond_inf(SA) = {cond:.3g}")
    gh, gl = _normal_system(fs)
    if not (np.isfinite(gh).all() and np.isfinite(gl).all()):
        raise q.SingularSystemError("outside the normal equations' range: Gram matrix not finite")

    # U row by row; cols[j] holds -U[k][j] of the rows k done, split
    upper, recips = [], []
    cols = [[] for _ in range(n + 1)]
    for i, (g, e) in enumerate(zip(gh.tolist(), gl.tolist())):
        mult = [dd_mul(*upper[k][i - k], *recips[k]) for k in range(i)]
        row = [dd_dot(g[j], e[j], mult, cols[j])[-1] for j in range(i, n + 1)]
        recips.append(dd_div(1.0, 0.0, *row[0]))
        upper.append(row)
        for j, (h, l) in enumerate(row, start=i):
            cols[j].append(split_operand(-h, -l))

    # U y = b; ys holds -y[i+1..n-1], split
    y, ys = [], []
    for i in range(n - 1, -1, -1):
        yh, yl = dd_mul(*dd_dot(*upper[i][-1], upper[i][1:n - i], ys)[-1], *recips[i])
        y.append(yh + yl)
        ys.insert(0, split_operand(-yh, -yl))
    return np.array(y[::-1])


def lsq_error_bound(fs, weights):
    """A bound on max |y_i - w_i| for y = ``lsq_normal_equations(fs)`` and
    the exact weights w of the system's nodes, derived from the error of
    each double-double operation, u_DD = 7 u^2.

    * The stored system: a moment mu_j, j < n, of the centred recurrence is
      off by at most (2j + 1) u_DD (1 + R)^j max_m |M_0[m]| (|M_j[m]| grows by
      at most 1 + R a step; one product and one sum per step),
      and an entry of A, a product of at most n - 1 exact node differences,
      by a relative n u_DD; through A^-1 that moves the weights by at most
      ||A^-1||_inf (dc + n u_DD ||A||_inf ||w||_inf).
    * The normal equations in double-double: forming G adds n gamma_n ||G||_2
      and eliminating the SPD system without pivoting 3 n gamma_n ||G||_2
      (Higham, 2nd ed., Thm 9.4 and Sec. 10.1, || |L||U| ||_2 <= n ||G||_2),
      so with eps = 4 n^2 u_DD kappa_2(SA)^2 the relative error is at most
      eps / (1 - eps) in the 2-norm, which bounds the inf-norm; S is the
      oracle's exact power-of-two row scaling, which leaves the solution
      as it is, and kappa_2(SA) is taken from the SVD of the rounded A so
      scaled.
    * One rounding to double, u |y_i|.

    The factor 1.01 covers forming the bound itself in doubles.
    """
    u, u_dd = 2.0 ** -53, 7.0 * 2.0 ** -106
    n, iv = fs.n, fs.nodes.interval
    w = np.asarray([float(v) for v in weights])
    norm_w2, norm_winf = float(np.linalg.norm(w)), float(np.max(np.abs(w)))
    c = 0.5 * iv.a + 0.5 * iv.b
    R = max(abs(c - t) for t in fs.nodes.nodes)
    m0 = float(max(map(abs, ref_centred_moments(iv.a, iv.b, n))))
    dc = (2 * n - 1) * u_dd * (1.0 + R) ** (n - 1) * m0
    norm_a = float(np.max(np.sum(np.abs(fs.A), axis=1)))
    stored = _norm_inf_inverse(fs.nodes.nodes) * (dc + n * u_dd * norm_a * norm_winf)
    e = _scale_exponent(iv)
    eps = 4 * n * n * u_dd * float(np.linalg.cond(np.ldexp(fs.A, -e * np.arange(n)[:, None]))) ** 2
    if not eps < 1.0:
        return math.inf
    rel = eps / (1.0 - eps)
    return 1.01 * (stored + rel * norm_w2 + u * (norm_winf + rel * norm_w2))


def _ref_legendre_pair_dd(k, x, ratios):
    p0, p1 = _REF_ONE, x
    for a, b in ratios:
        p0, p1 = p1, p1 * x * a + p0 * b
    dp = (p0 - p1 * x) * k / (_REF_ONE - x * x)
    return p1, dp


@lru_cache(maxsize=None)
def _ref_legendre_ratios(k):
    return [(_ref_from_fraction(Fraction(2 * j - 1, j)), _ref_from_fraction(Fraction(1 - j, j)))
            for j in range(2, k + 1)]


@lru_cache(maxsize=None)
def _ref_monic_coefficients(k):
    # -4 beta_j, beta_j = (j-1)^2 / (4(j-1)^2 - 1), j = 2..k, rounded from Fractions
    return [_ref_from_fraction(Fraction(-4 * (j - 1) ** 2, 4 * (j - 1) ** 2 - 1))
            for j in range(2, k + 1)]


def ref_monic(k, x):
    """(V_{k-1}, V_k) of the scaled monic Legendre recurrence
    V_j = 2x V_{j-1} - 4 beta_j V_{j-2}, V_0 = 1, V_1 = 2x, by scalar RefDD
    operators; x is a (hi, lo) pair.  2x multiplies as a plain double when
    its low part is zero, as ``_ref_factor`` does for node differences."""
    x2 = RefDD(2.0 * x[0], 2.0 * x[1])
    factor = x2[0] if x2[1] == 0.0 else x2
    v0, v1 = _REF_ONE, x2
    for c in _ref_monic_coefficients(k):
        v0, v1 = v1, v1 * factor + v0 * c
    return v0, v1


def ref_legendre_pair(k, x):
    """(P_k(x), P'_k(x)) by the three-term recurrence in plain doubles: the
    frozen copy of the recurrence that ``quadlsq.nodes`` iterated on before
    it took its starting values from the Jacobi matrix."""
    p0, p1 = 1.0, x
    for j in range(2, k + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    if k == 0:
        return 1.0, 0.0
    dp = k * (p0 - x * p1) / (1.0 - x * x)
    return p1, dp


def ref_newton_starts(n):
    """The n // 2 positive zeros of P_n in decreasing order, by Newton's
    iteration in doubles on :func:`ref_legendre_pair` from the asymptotic
    guesses cos(pi (4k-1) / (4n+2)): the old route to the starting values
    of the double-double step."""
    starts = []
    for k in range(1, n // 2 + 1):
        x = math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(100):
            p, dp = ref_legendre_pair(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        starts.append(x)
    return starts


def ref_legendre_nodes(n):
    """Gauss-Legendre nodes: :func:`ref_newton_starts` followed by the
    scalar-DD polish."""
    from quadlsq import nodes as qn

    ratios = _ref_legendre_ratios(n)
    half = []
    for x in ref_newton_starts(n):
        x_dd = RefDD(x)
        for _ in range(2):
            p_dd, dp_dd = _ref_legendre_pair_dd(n, x_dd, ratios)
            x_dd = x_dd - p_dd / dp_dd
        half.append(float(x_dd))
    half.sort(reverse=True)
    return qn._mirrored(half, n)


def bits(values):
    """The IEEE bit patterns of a flat sequence of doubles or of (hi, lo)
    pairs: equal bits tell signed zeros and NaN payloads apart."""
    flat = []
    for v in values:
        flat.extend(v if isinstance(v, tuple) else (v,))
    return struct.pack(f"<{len(flat)}d", *flat)


# ---------------------------------------------------------------------------
# honesty ratchets (tests/test_honesty.py, tests/test_honesty_custom.py)
# ---------------------------------------------------------------------------

_PERFBENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"

#: A right row has mu_Q and N_omega within this relative error of exact.
RATCHET_RTOL = 1e-8


@lru_cache(maxsize=None)
def perfbench_reference():
    """The benchmark's ``reference`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", _PERFBENCH_REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(text):
    """The set of n in a run list such as "2-5,9,12-13"."""
    out = set()
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def exact_entry(ns, degree=None):
    """The ratchet's fields of the benchmark's exact reference for ``ns``:
    the node hash, the degree (``degree``, the theoretical one of a family
    rule, or else the exact degree on the binary nodes), mu_Q (None when it
    overflows a double) and N_omega."""
    ref = perfbench_reference()
    try:
        entry = ref.exact_reference(q, ns, degree)
    except OverflowError:
        rr = q.rational_pipeline(ns)
        entry = {"nodes_sha256": ref.nodes_key(ns),
                 "degree": rr.degree if degree is None else degree, "mu_Q": None,
                 "n_omega": float(sum(map(abs, rr.weights)))}
    return {k: entry[k] for k in ("nodes_sha256", "degree", "mu_Q", "n_omega")}


def _within(value, exact):
    """rel err <= RATCHET_RTOL against a normal double; a nan value is not
    within, and no value is within an exact value that is not a normal
    double."""
    if exact is None or abs(exact) < sys.float_info.min:
        return False
    return abs(value - exact) <= RATCHET_RTOL * abs(exact)


def grade(ns, family, entry):
    """'right', 'wrong' or 'typed' for the report on ``ns`` against its
    exact ``entry``."""
    try:
        report = q.build_report(ns, family=family)
    except q.NumericalFailure:
        return "typed"
    right = (report.degree == entry["degree"] and _within(report.mu_Q, entry["mu_Q"])
             and _within(report.N_omega, entry["n_omega"]))
    return "right" if right else "wrong"


@lru_cache(maxsize=None)
def read_ratchet_cache(path):
    """{key: exact entry} of a ratchet's cache file, read once."""
    return json.loads(Path(path).read_text(encoding="utf-8"))["rules"]


def write_ratchet_cache(path, rules):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rules": rules}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(rules)} entries to {path}")


def graded_rows(rows, cached):
    """({row: outcome}, recomputed) for ``rows`` of (row, key, ns, family,
    degree), each graded on its cached exact entry ``cached[key]``, or on
    one recomputed (:func:`exact_entry`) where that entry is missing or its
    node hash differs from ``ns``'s; recomputed counts those."""
    ref = perfbench_reference()
    outcomes, recomputed = {}, 0
    for row, key, ns, family, degree in rows:
        entry = cached.get(key)
        if entry is None or entry["nodes_sha256"] != ref.nodes_key(ns):
            entry = exact_entry(ns, degree)
            recomputed += 1
        outcomes[row] = grade(ns, family, entry)
    return outcomes, recomputed


def assert_within_frozen(outcomes, wrong_ok, failed_ok):
    """The wrong rows stay within ``wrong_ok``, and the wrong and typed rows
    together within ``failed_ok``."""
    wrong = {row for row, o in outcomes.items() if o == "wrong"}
    failed = {row for row, o in outcomes.items() if o != "right"}
    assert not wrong - wrong_ok, f"new silently wrong rows: {sorted(wrong - wrong_ok)}"
    assert not failed - failed_ok, f"right rows that fail: {sorted(failed - failed_ok)}"
