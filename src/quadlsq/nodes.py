"""Node families on [-1, 1]: Newton-Cotes, Fejer (first rule),
Clenshaw-Curtis practical abscissas, Gauss-Legendre.

Every generator returns strictly increasing nodes whose multiset is exactly
invariant under x -> -x: the positive half is computed and mirrored, so the
odd extended-basis moments that vanish by symmetry are computed from data
that is symmetric to the last bit.

Clenshaw-Curtis is parameterized by the *total* node count so that all four
families share one "number of nodes" axis (the classical practical-abscissa
formula cos(k pi / m), k = 0..m, yields m+1 points).

Gauss-Legendre nodes are the roots of P_n correctly rounded: Newton's
iteration in doubles, then one Newton step in double-double, and an
acceptance check on the same double-double recurrence.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .basis import NodeSet, _checked_nodes
from .ddouble import _SPLITTER, dd_mul, two_sum
from .errors import ConvergenceError
from .poly import Interval

_NEWTON_MAX_ITER = 100
_NEWTON_XTOL = 1e-15
_NEWTON_PTOL = 1e-14


class Family(str, Enum):
    NEWTON_COTES = "newton_cotes"
    FEJER1 = "fejer1"
    CLENSHAW_CURTIS = "clenshaw_curtis"
    GAUSS_LEGENDRE = "gauss_legendre"
    CUSTOM = "custom"

    @classmethod
    def parse(cls, text):
        """Accept the usual short names (nc, f, cc, gl) as well."""
        key = str(text).strip().lower().replace("-", "_")
        aliases = {
            "nc": cls.NEWTON_COTES,
            "newton_cotes": cls.NEWTON_COTES,
            "f": cls.FEJER1,
            "fejer": cls.FEJER1,
            "fejer1": cls.FEJER1,
            "cc": cls.CLENSHAW_CURTIS,
            "clenshaw_curtis": cls.CLENSHAW_CURTIS,
            "gl": cls.GAUSS_LEGENDRE,
            "gauss": cls.GAUSS_LEGENDRE,
            "gauss_legendre": cls.GAUSS_LEGENDRE,
            "custom": cls.CUSTOM,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(f"unknown family: {text!r}") from None


@dataclass(frozen=True)
class FamilySpec:
    """Which rule family to generate and how many nodes in total."""

    family: Family
    n: int = 0
    custom_nodes: tuple = None


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


def _legendre_pair(k, x):
    """(P_k(x), P'_k(x)) by the three-term recurrence, plain doubles."""
    p0, p1 = 1.0, x
    for j in range(2, k + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    if k == 0:
        return 1.0, 0.0
    dp = k * (p0 - x * p1) / (1.0 - x * x)
    return p1, dp


def _dd_ratio(num, den):
    """The integer ratio num/den as a double-double pair (hi, lo), with
    |num| and den below 2**53 and num nonzero.

    hi = fl(num/den).  The remainder num - den*hi is a double: den*hi is
    split exactly by a two-product into p + e, num - p is exact by
    Sterbenz's lemma (p is within a rounding of num), and subtracting e
    leaves the representable remainder exactly.  So lo = fl(rem/den) is the
    rest correctly rounded, the pair ``ddouble.from_fraction`` gives."""
    hi = num / den
    p, e = dd_mul(float(den), 0.0, hi, 0.0)
    return hi, ((num - p) - e) / den


def _monic_coefficients(k):
    """Float pairs of -4 beta_j, j = 2..k, with beta_j = (j-1)^2/(4(j-1)^2-1)
    the monic Legendre recurrence coefficient, as (ch, cl)."""
    return [_dd_ratio(-4 * (j - 1) ** 2, 4 * (j - 1) ** 2 - 1) for j in range(2, k + 1)]


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


def _newton_step_dd(k, x, coeffs):
    """One double-double Newton step for P_k from the double x, on
    :func:`_monic_dd` at x.  V_k is carried in double-double; the
    derivative, V'_k = k (V_{k-1} 2k/(2k-1) - x V_k) / (1 - x^2), only
    scales the tiny correction and is formed in doubles.  Returns the new
    iterate x - V_k/V'_k as (xh, xl)."""
    v0h, _, vh, vl = _monic_dd(x, 0.0, coeffs)
    v = vh + vl
    dv = k * (v0h * (2 * k) / (2 * k - 1) - x * v) / (1.0 - x * x)
    return two_sum(x, -(v / dv))


def legendre_nodes(n):
    """Zeros of the Legendre polynomial P_n, sorted ascending.

    Newton iteration in doubles on the three-term recurrence from the
    asymptotic guesses cos(pi (4k-1) / (4n+2)), then one double-double
    Newton step (:func:`_newton_step_dd`), so every root is correctly
    rounded, then mirrored for exact symmetry.  Both the step and the
    acceptance check run the one double-double recurrence,
    :func:`_monic_dd`, on float pairs with the :mod:`quadlsq.ddouble`
    arithmetic written out.  Each root is accepted only if |P_n| < 1e-14
    at the double-double iterate, tested as |V_n| < 1e-14 kappa_n with
    kappa_n = V_n / P_n = 4^n / C(2n, n) rounded once.
    Raises :class:`ConvergenceError` after 100 iterations on any root, or
    if a root fails that check.
    """
    if n < 1:
        raise ValueError(f"unsupported count: need n >= 1, got {n}")
    coeffs = _monic_coefficients(n)
    vtol = _NEWTON_PTOL * (4 ** n / math.comb(2 * n, n))
    half = []
    for k in range(1, n // 2 + 1):
        x = math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre_pair(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < _NEWTON_XTOL:
                break
        else:
            raise ConvergenceError(f"no convergence for root {k} of P_{n}")
        xh, xl = _newton_step_dd(n, x, coeffs)
        _, _, vh, vl = _monic_dd(xh, xl, coeffs)
        if not abs(vh + vl) < vtol:
            raise ConvergenceError(f"no convergence for root {k} of P_{n}")
        half.append(xh + xl)
    half.sort(reverse=True)
    return _mirrored(half, n)


_GENERATORS = {
    Family.NEWTON_COTES: newton_cotes_nodes,
    Family.FEJER1: fejer1_nodes,
    Family.CLENSHAW_CURTIS: clenshaw_curtis_nodes,
    Family.GAUSS_LEGENDRE: legendre_nodes,
}


def generate(spec, interval=None):
    """NodeSet for a family spec, optionally mapped onto another interval.

    The families are defined on [-1, 1]; for a different interval the nodes
    are mapped affinely, by a midpoint and half-length formed from the
    halved endpoints, which cannot overflow.  Custom nodes are taken verbatim.
    """
    interval = interval or Interval()
    if spec.family == Family.CUSTOM:
        if not spec.custom_nodes:
            raise ValueError("custom family needs custom_nodes")
        return NodeSet(spec.custom_nodes, interval)
    nodes = _GENERATORS[spec.family](spec.n)
    if (interval.a, interval.b) != (-1.0, 1.0):
        mid = 0.5 * interval.a + 0.5 * interval.b
        rad = 0.5 * interval.b - 0.5 * interval.a
        nodes = [mid + rad * t for t in nodes]
    return NodeSet(tuple(nodes), interval)


def read_nodes_file(path):
    """Exact node values from a text file, one per line.

    Each line holds one decimal number or a ``num/den`` rational; ``#``
    starts a comment.  Values are returned as Fractions (exact) and must
    pass the node check of :class:`NodeSet`, whose message names the path.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{path}:{lineno}: cannot parse node {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no nodes found")
    try:
        _checked_nodes(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values
