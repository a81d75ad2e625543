"""Node families on [-1, 1]: Newton-Cotes, Fejer (first rule),
Clenshaw-Curtis practical abscissas, Gauss-Legendre.

Given nodes are not generated: they go to :class:`NodeSet` directly,
exact ones from a file through :func:`read_nodes_file`.

Every generator returns strictly increasing nodes whose multiset is exactly
invariant under x -> -x: the positive half is computed and mirrored, so the
odd extended-basis moments that vanish by symmetry are computed from data
that is symmetric to the last bit.

Clenshaw-Curtis is parameterized by the *total* node count so that all four
families share one "number of nodes" axis (the classical practical-abscissa
formula cos(k pi / m), k = 0..m, yields m+1 points).

Gauss-Legendre nodes are the roots of P_n correctly rounded: the
eigenvalues of the symmetric tridiagonal Jacobi matrix as starting values
(Golub & Welsch, "Calculation of Gauss quadrature rules", 1969), which
LAPACK computes on a dense O(n^2) array, then one Newton step in
double-double.  One walk of the double-double Legendre recurrence per
root serves both the step and its acceptance check: the check bounds
|P_n| at the new iterate from the walk's values at the start, by Taylor's
theorem with max |P_n''| = P_n''(1), with every rounding counted (see
:func:`legendre_nodes`).  That start is the one use of numpy here: it is
imported when Gauss-Legendre nodes are first generated, and the other
families never load it.
"""

import math
import operator
from enum import Enum

from .basis import Interval, NodeSet, _Value, _checked_interval_type
from .ddouble import _SPLITTER, dd_ratio, two_sum
from .errors import ConvergenceError

_NEWTON_PTOL = 1e-14
_U = 2.0 ** -53  # the unit roundoff of a double
_SLACK = 1.0 + 2.0 ** -40  # covers the roundings of the acceptance bound, kappa_n and vtol


class Family(str, Enum):
    NEWTON_COTES = "newton_cotes"
    FEJER1 = "fejer1"
    CLENSHAW_CURTIS = "clenshaw_curtis"
    GAUSS_LEGENDRE = "gauss_legendre"
    CUSTOM = "custom"

    def __str__(self):  # the value, not the member name that 3.11 gives
        return self.value

    @classmethod
    def parse(cls, text):
        """A member itself, or the member of its value or of a short name
        of ``_SHORT_NAMES``."""
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower().replace("-", "_")
        try:
            return cls(_SHORT_NAMES.get(key, key))
        except ValueError:
            raise ValueError(f"unknown family: {text!r}") from None


_SHORT_NAMES = {"nc": "newton_cotes", "f": "fejer1", "fejer": "fejer1",
                "cc": "clenshaw_curtis", "gl": "gauss_legendre", "gauss": "gauss_legendre"}


class FamilySpec(_Value):
    """A family to generate and its total node count (given nodes go to NodeSet).

    The family is read by :meth:`Family.parse` and n by ``operator.index``;
    ``Family.CUSTOM``, an unknown family and a non-integral or ``bool`` n
    are a ``ValueError``.  The least n is the family's generator's to check.
    """

    __match_args__ = ("family", "n")

    def __init__(self, family: Family, n: int):
        family = Family.parse(family)
        if family is Family.CUSTOM:
            raise ValueError("custom nodes are not generated: pass them to NodeSet")
        try:
            index = operator.index(None if isinstance(n, bool) else n)
        except TypeError:
            raise ValueError(f"the node count must be an integer, got {n!r}") from None
        vars(self).update(family=family, n=index)


def _mirrored(positive_desc, n):
    """Assemble an ascending, exactly symmetric node list.

    ``positive_desc`` holds the n//2 positive nodes in decreasing order.
    """
    out = [-v for v in positive_desc]
    if n % 2 == 1:
        out.append(0.0)
    out.extend(reversed(positive_desc))
    return out


def newton_cotes_nodes(n):
    """n equispaced nodes on [-1, 1] including both endpoints."""
    if n < 2:
        raise ValueError(f"unsupported count: closed Newton-Cotes needs n >= 2, got {n}")
    m = n - 1
    half = [(m - 2 * k) / m for k in range(n // 2)]
    return _mirrored(half, n)


def fejer1_nodes(n):
    """Zeros of the degree-n Chebyshev polynomial, sorted ascending."""
    if n < 1:
        raise ValueError(f"unsupported count: need n >= 1, got {n}")
    half = [math.cos((2 * k - 1) * math.pi / (2 * n)) for k in range(1, n // 2 + 1)]
    return _mirrored(half, n)


def clenshaw_curtis_nodes(n):
    """n practical abscissas cos(k pi / (n-1)), k = 0..n-1, sorted ascending."""
    if n < 2:
        raise ValueError(f"unsupported count: Clenshaw-Curtis needs n >= 2, got {n}")
    m = n - 1
    half = [1.0] + [math.cos(k * math.pi / m) for k in range(1, n // 2)]
    return _mirrored(half, n)


def _monic_coefficients(k):
    """Float pairs of -4 beta_j, j = 2..k, with beta_j = (j-1)^2/(4(j-1)^2-1)
    the monic Legendre recurrence coefficient, as (ch, cl), each the
    integer ratio rounded once by :func:`quadlsq.ddouble.dd_ratio`."""
    return [dd_ratio(-4 * (j - 1) ** 2, 4 * (j - 1) ** 2 - 1) for j in range(2, k + 1)]


def _monic_dd(xh, xl, coeffs):
    """(V_{k-1}, V_k) as (v0h, v0l, vh, vl) at the double-double point
    x = xh + xl, with ``coeffs`` from :func:`_monic_coefficients` for k.

    Runs the scaled monic recurrence V_j = (2x) V_{j-1} - 4 beta_j V_{j-2},
    V_0 = 1, V_1 = 2x, in double-double.  V_k = P_k kappa_k with
    kappa_k = 4^k (k!)^2 / (2k)!, about sqrt(pi k), so it neither
    underflows nor overflows at any k.  Each step is
    ``dd_add(dd_mul(V_{j-1}, 2x), dd_mul(V_{j-2}, -4 beta_j))`` written out:
    2x is split once, and the split of V_{j-1} is kept for the next step,
    where it is V_{j-2}.  When x is a double, 2x is taken with lo = 0 (see
    :func:`quadlsq.ddouble.dd_mul`)."""
    x2h, x2l = 2.0 * xh, 2.0 * xl
    c = _SPLITTER * x2h
    zh = c - (c - x2h)
    zl = x2h - zh
    v0h, v0l, a0h, a0l = 1.0, 0.0, 1.0, 0.0  # V_0 and its split
    v1h, v1l = x2h, x2l
    for ch, cl in coeffs:
        p = v1h * x2h
        c = _SPLITTER * v1h
        a1h = c - (c - v1h)
        a1l = v1h - a1h
        e = ((a1h * zh - p) + a1h * zl + a1l * zh) + a1l * zl
        e += v1h * x2l + v1l * x2h
        th = p + e
        tl = e - (th - p)
        p = v0h * ch
        c = _SPLITTER * ch
        bh = c - (c - ch)
        bl = ch - bh
        e = ((a0h * bh - p) + a0h * bl + a0l * bh) + a0l * bl
        e += v0h * cl + v0l * ch
        uh = p + e
        ul = e - (uh - p)
        v0h, v0l, a0h, a0l = v1h, v1l, a1h, a1l
        s = th + uh
        v = s - th
        e = (th - (s - v)) + (uh - v)
        t = tl + ul
        v = t - tl
        f = (tl - (t - v)) + (ul - v)
        e += t
        h = s + e
        e -= h - s
        e += f
        v1h = h + e
        v1l = e - (v1h - h)
    return v0h, v0l, v1h, v1l


def _walk_error(k):
    """A bound on the error of :func:`_monic_dd`'s V_{k-1} and V_k at a
    double x in [-1, 1]: 512 k^(5/2) u^2, with u = 2^-53.

    The computed V_j is 2x V_{j-1} - 4 beta_j V_{j-2} + m_j, from the
    computed V_{j-1} and V_{j-2}, with m_j the error of step j.  Its two products err by at most 7 u^2 (Joldes,
    Muller & Popescu, ACM TOMS 44, 2017), its sum by 3 u^2 + 13 u^3 (as
    corrected by Muller & Rideau, 2022), and the pair -4 beta_j of
    :func:`_monic_coefficients` by u^2 |4 beta_j|, with 4 beta_j <= 4/3.
    With |V_j| <= kappa_j <= kappa_k on [-1, 1] (|P_j| <= 1) and every
    computed V_j within kappa_k of the true one, |m_j| <= 36.1 u^2 (2 kappa_k).
    The error after step k is sum_j G(k, j) m_j, with G(k, j) the
    recurrence's solution from y_{j-1} = 0, y_j = 1.  With b_m = 4 beta_m,
    which falls from 4/3 towards 1, the form
    E_m = y_m^2 - 2x y_m y_{m-1} + b_{m+1} y_{m-1}^2 obeys
    E_{m+1} = b_{m+1} E_m + (b_{m+2} - b_{m+1}) y_m^2 <= b_{m+1} E_m, and
    E_m >= y_m^2 (1 - x^2 / b_{m+1}) >= y_m^2 / (4 m^2) for |x| <= 1.  As
    E_j = 1 and the product of all b_m is Wallis's pi/2,
    |G(k, j)| <= 2k sqrt(pi/2) < 2.51 k.  So the error is at most
    181 k^2 u^2 kappa_k, and kappa_k = 4^k / C(2k, k) <= 2 sqrt(k); the
    factor 512 rather than 362 also covers underflow, a few 2^-1074 per
    operation.
    """
    return 512.0 * 2.0 ** -106 * k * k * math.sqrt(k)


def _newton_step_dd(k, x, coeffs):
    """One double-double Newton step for P_k from the double x, on one walk
    of :func:`_monic_dd` at x.  V_k is carried in double-double; the
    derivative, V'_k = k (V_{k-1} 2k/(2k-1) - x V_k) / (1 - x^2), only
    scales the tiny correction and is formed in doubles.

    Returns (xh, xl, v, dv, dv_err): the new iterate x - V_k/V'_k as
    (xh, xl), and what the acceptance check of :func:`legendre_nodes`
    reads from the same walk: V_k(x) and V'_k(x) as the doubles v and dv,
    and dv_err, a bound on |dv - V'_k(x)|.  As computed, with u = 2^-53,
    E = :func:`_walk_error` (k) and a = V_{k-1} 2k/(2k-1), b = x v and
    d = a - b, the bracket d is within
    err_d = u (|d| + 3 |a| + |b| + |v|) + 2 |lo of V_{k-1}| + 3 E of the
    exact one, den = 1 - x^2 is within u (den + x^2) of 1 - x^2, and the
    product by k and the quotient round once each.  So, with
    r = err_d / |d| + u (x^2 / den + 3), |dv - V'_k(x)| <= 1.2 r |dv|
    whenever r <= 1/8 and den > 0; dv_err is 2 r |dv| then, and inf
    otherwise, which refuses the root.
    """
    v0h, v0l, vh, vl = _monic_dd(x, 0.0, coeffs)
    v = vh + vl
    a = v0h * (2 * k) / (2 * k - 1)
    b = x * v
    d = a - b
    xx = x * x
    den = 1.0 - xx
    dv = k * d / den
    err_d = _U * (abs(d) + 3.0 * abs(a) + abs(b) + abs(v)) + 2.0 * abs(v0l) + 3.0 * _walk_error(k)
    r = err_d / abs(d) + _U * (xx / den + 3.0)
    dv_err = 2.0 * r * abs(dv) if den > 0.0 and r <= 0.125 else math.inf
    return (*two_sum(x, -(v / dv)), v, dv, dv_err)


def _root_bound(x, xh, xl, v, dv, dv_err, walk_err, h2):
    """A bound on |V_n| at the double-double point xh + xl, from a
    :func:`_newton_step_dd` walk at the double x: the step's (xh, xl, v,
    dv, dv_err), ``walk_err`` = :func:`_walk_error` (n) and ``h2``, half
    of max |V_n''| on [-1, 1], rounded.

    With the exact step Delta = (xh + xl) - x = dh + de + xl, two_sum
    giving dh + de = xh - x exactly, Taylor's theorem gives
    |V_n(x + Delta)| <= |V_n(x) + V'_n(x) Delta| + h2 Delta^2.  The first
    term is formed as lin = (v + dv dh) + dv (de + xl): v is within
    u |v| + walk_err of V_n(x), dv within dv_err of V'_n(x), and each of
    the five roundings in lin is at most u of its result, which
    3 u (|lin| + |v| + |dv dh| + |dv (de + xl)|) covers.  Every term is a
    product or sum of non-negative values, so the roundings of the bound
    itself, and of h2, are relative, a few u, which the caller's factor
    1 + 2^-40 covers.  An infinite dv_err makes the bound inf or nan,
    which no threshold accepts.
    """
    dh, de = two_sum(xh, -x)
    dl = de + xl
    p = dv * dh
    q = dv * dl
    lin = (v + p) + q
    step = abs(dh) + abs(dl)
    return (abs(lin) + 3.0 * _U * (abs(lin) + abs(v) + abs(p) + abs(q)) + walk_err
            + dv_err * step + h2 * step * step)


def legendre_nodes(n):
    """Zeros of the Legendre polynomial P_n, sorted ascending.

    The zeros start from the eigenvalues of the Jacobi matrix of the
    Legendre weight, the symmetric tridiagonal matrix with zero diagonal
    and off-diagonal b_k = k / sqrt(4k^2 - 1), k = 1..n-1 (Golub & Welsch,
    Math. Comp. 23, 1969; LAPACK reads only the lower triangle).  These
    are within 2.1e-15 of the zeros over n = 1..400 and n = 1100.  After
    one Newton step the error is about |x| / (1 - x^2) times the square of
    the start error, since P''_n / P'_n = 2x / (1 - x^2) at a zero; that
    is at most 6.8e-27 on the same n, far below half an ulp of every zero.
    So one double-double Newton step (:func:`_newton_step_dd`) makes every
    zero correctly rounded, and the zeros are then mirrored for exact
    symmetry.

    Each root takes one walk of the double-double recurrence
    :func:`_monic_dd`, at the double start x, and is accepted from that
    walk: only if |P_n| < 1e-14 at the double-double iterate, tested as
    |V_n| < vtol, with vtol = 1e-14 kappa_n and
    kappa_n = V_n / P_n = 4^n / C(2n, n) rounded once.  The iterate is
    x + Delta, and :func:`_root_bound` bounds |V_n| there by
    |V_n(x) + V'_n(x) Delta| + (1/2) max |V_n''| Delta^2.  The lemma:
    P_n' is a sum of (2j+1) P_j over j = n-1, n-3, ..., so P_n'' is a sum
    of the P_i with non-negative coefficients, and with |P_i| <= 1 = P_i(1)
    on [-1, 1], max |P_n''| = P_n''(1) = (n-1) n (n+1) (n+2) / 8.  The
    bound carries the walk's rounding (:func:`_walk_error`), dv's
    (including that of 1 - x^2, see :func:`_newton_step_dd`) and its own.
    A root is accepted iff the iterate lies in (-1, 1), where the lemma
    holds, and the bound times 1 + 2^-40 is below vtol, the factor
    covering the roundings of the bound, of vtol and of kappa_n; then
    |P_n| < 1e-14 at the iterate is proved, not estimated.  A step that
    lands off the root fails the first term, and a start far from any root
    fails the last: an error of 1e-6 in the start gives at least 1.5e-12
    kappa_n there.  Raises :class:`ConvergenceError` if the eigensolver does
    not converge or if a root fails that check.

    The eigensolver takes the dense n x n matrix, so the start costs
    O(n^2) memory (about 19 MB at n = 1100, 0.07 MB at n <= 64) and O(n^3)
    flops in LAPACK, a small share of the time of the n/2 double-double
    recurrences of length n up to n = 1100 at least.
    """
    if n < 1:
        raise ValueError(f"unsupported count: need n >= 1, got {n}")
    import numpy as np  # the one generator that needs it, for LAPACK

    j = np.arange(1.0, n)
    try:
        start = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no convergence for the zeros of P_{n}: {exc}") from None
    coeffs = _monic_coefficients(n)
    kappa = 4 ** n / math.comb(2 * n, n)
    vtol = _NEWTON_PTOL * kappa
    walk_err = _walk_error(n)
    h2 = kappa * ((n - 1) * n * (n + 1) * (n + 2) / 16)
    half = []
    for k in range(1, n // 2 + 1):
        x = float(start[n - k])
        step = _newton_step_dd(n, x, coeffs)
        xh, xl = step[0], step[1]
        if not (abs(xh) < 1.0 and _root_bound(x, *step, walk_err, h2) * _SLACK < vtol):
            raise ConvergenceError(f"no convergence for root {k} of P_{n}")
        half.append(xh + xl)
    return _mirrored(half, n)


_GENERATORS = {
    Family.NEWTON_COTES: newton_cotes_nodes,
    Family.FEJER1: fejer1_nodes,
    Family.CLENSHAW_CURTIS: clenshaw_curtis_nodes,
    Family.GAUSS_LEGENDRE: legendre_nodes,
}


def generate(spec, interval=None):
    """NodeSet of a family spec on ``interval`` (default [-1, 1]).

    Each node t of the family on [-1, 1] goes to mid + rad t, with the
    interval's ``mid`` and ``rad``; on [-1, 1] the map is the identity, bit
    for bit, as no generator returns -0.0.  An ``interval`` that is not an
    :class:`Interval` is a ``ValueError``.
    """
    interval = Interval() if interval is None else _checked_interval_type(interval)
    mid, rad = interval.mid, interval.rad
    return NodeSet(tuple(mid + rad * t for t in _GENERATORS[spec.family](spec.n)), interval)


def read_nodes_file(path):
    """Exact node values from a text file, one per line.

    Each line holds one decimal number or a ``num/den`` rational; ``#``
    starts a comment.  Values are returned as Fractions (exact) and must
    increase; an error names the path and line and quotes the file's text.
    The file is UTF-8, with or without a byte-order mark, and any line
    ending; a byte that is not UTF-8 is such an error too.
    """
    from fractions import Fraction

    values, lines = [], []
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:  # an escaped byte: U+DC80..U+DCFF
                byte = ord(raw[exc.start]) - 0xDC00
                raise ValueError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{path}:{lineno}: cannot parse node {text!r}") from None
            lines.append((lineno, text))
    if not values:
        raise ValueError(f"{path}: no nodes found")
    for (m, before), (k, text), a, b in zip(lines, lines[1:], values, values[1:]):
        if not a < b:
            raise ValueError(f"{path}:{k}: node {text} is not above {before} on line {m}")
    return values
