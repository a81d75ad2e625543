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
double-double, and an acceptance check on the same double-double
recurrence.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .basis import Interval, NodeSet, _checked_nodes
from .ddouble import _SPLITTER, dd_ratio, two_sum
from .errors import ConvergenceError

_NEWTON_PTOL = 1e-14


class Family(str, Enum):
    NEWTON_COTES = "newton_cotes"
    FEJER1 = "fejer1"
    CLENSHAW_CURTIS = "clenshaw_curtis"
    GAUSS_LEGENDRE = "gauss_legendre"
    CUSTOM = "custom"

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


@dataclass(frozen=True)
class FamilySpec:
    """A family to generate and its total node count (given nodes go to NodeSet).

    The family is read by :meth:`Family.parse` and n by ``operator.index``;
    ``Family.CUSTOM``, an unknown family and a non-integral n are a
    ``ValueError``.  The least n is the family's generator's to check.
    """

    family: Family
    n: int

    def __post_init__(self):
        family = Family.parse(self.family)
        if family is Family.CUSTOM:
            raise ValueError("custom nodes are not generated: pass them to NodeSet")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"the node count must be an integer, got {self.n!r}") from None
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)


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
    symmetry.  Both the
    step and the acceptance check run the one double-double recurrence,
    :func:`_monic_dd`, on float pairs with the :mod:`quadlsq.ddouble`
    arithmetic written out.  Each root is accepted only if |P_n| < 1e-14
    at the double-double iterate, tested as |V_n| < 1e-14 kappa_n with
    kappa_n = V_n / P_n = 4^n / C(2n, n) rounded once.
    Raises :class:`ConvergenceError` if the eigensolver does not converge
    or if a root fails that check.

    The eigensolver takes the dense n x n matrix, so the start costs
    O(n^2) memory (about 19 MB at n = 1100, 0.07 MB at n <= 64) and O(n^3)
    flops in LAPACK, a small share of the time of the n/2 double-double
    recurrences of length n up to n = 1100 at least.
    """
    if n < 1:
        raise ValueError(f"unsupported count: need n >= 1, got {n}")
    j = np.arange(1.0, n)
    try:
        start = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no convergence for the zeros of P_{n}: {exc}") from None
    coeffs = _monic_coefficients(n)
    vtol = _NEWTON_PTOL * (4 ** n / math.comb(2 * n, n))
    half = []
    for k in range(1, n // 2 + 1):
        xh, xl = _newton_step_dd(n, float(start[n - k]), coeffs)
        _, _, vh, vl = _monic_dd(xh, xl, coeffs)
        if not abs(vh + vl) < vtol:
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
    for bit, as no generator returns -0.0.
    """
    interval = interval or Interval()
    mid, rad = interval.mid, interval.rad
    return NodeSet(tuple(mid + rad * t for t in _GENERATORS[spec.family](spec.n)), interval)


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
