"""Shared helpers: cached rule construction across the four families, exact
rational references for the diagnostics, the frozen Fraction route of the
exact oracle, and the frozen scalar-DD reference route for the float-pair
kernels."""

import math
import random
import struct
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import quadlsq as q
from quadlsq.basis import NodeSet
from quadlsq.oracle import _as_fraction

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
    ts = [_as_fraction(t) for t in nodes]
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
    p = a * b
    if hasattr(math, "fma"):
        return p, math.fma(a, b, -p)
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


def ref_moments(ns):
    """mu_0..mu_2n by the centred moment recurrence, M_0 computed cold."""
    nodes, iv = ns.nodes, ns.interval
    c = 0.5 * iv.a + 0.5 * iv.b
    ua, ub = Fraction(iv.a) - Fraction(c), Fraction(iv.b) - Fraction(c)
    pa = pb = Fraction(1)
    M = []
    for m in range(1, 2 * len(nodes) + 2):
        pa *= ua
        pb *= ub
        M.append(_ref_from_fraction((pb - pa) / m))
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


def _ref_dd_dot(xs, ys):
    acc = _REF_ZERO
    for x, v in zip(xs, ys):
        acc = acc + x * v
    return acc


def ref_lsq_normal_equations(F, c_tilde):
    """``oracle.lsq_normal_equations`` on the padded system: F is all n+1
    rows of (hi, lo) pairs, structural zeros included, and c_tilde the n+1
    right-hand sides.  The Gram system, its right-hand side and the
    refinement residuals use scalar RefDD operators over every entry; the
    elimination is the oracle's own."""
    import numpy as np
    from quadlsq.oracle import _lu_factor, _lu_solve

    F = [[_ref(e) for e in row] for row in F]
    c_tilde = [_ref(e) for e in c_tilde]
    n = len(F[0])
    cols = list(zip(*F))
    gram_dd = [[_ref_dd_dot(cols[i], cols[j]) for j in range(n)] for i in range(n)]
    rhs_dd = [_ref_dd_dot(cols[i], c_tilde) for i in range(n)]
    gram = np.array([[float(e) for e in row] for row in gram_dd])
    rhs = np.array([float(e) for e in rhs_dd])

    lu, piv = _lu_factor(gram)
    y = _lu_solve(lu, piv, rhs)
    for _ in range(3):
        resid = np.array([
            float(rhs_dd[i] - _ref_dd_dot(gram_dd[i], [float(v) for v in y]))
            for i in range(n)
        ])
        if not np.any(resid):
            break
        y = y + _lu_solve(lu, piv, resid)
    return y


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


def ref_legendre_nodes(n):
    """Gauss-Legendre nodes: the double Newton iteration of ``quadlsq.nodes``
    followed by the scalar-DD polish."""
    from quadlsq import nodes as qn

    ratios = _ref_legendre_ratios(n)
    half = []
    for k in range(1, n // 2 + 1):
        x = math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(100):
            p, dp = qn._legendre_pair(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
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
