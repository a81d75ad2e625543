"""Double-double arithmetic: error-free transformation pairs.

A :class:`DD` value stores an unevaluated sum ``hi + lo`` of two doubles
with ``|lo| <= 0.5 ulp(hi)``, giving roughly 106 significand bits.  This is
enough to accumulate the moments of polynomials up to degree ~130 without
the catastrophic cancellation that plain doubles suffer when the result is
ten orders of magnitude below the largest term.

The arithmetic lives in float-pair primitives (``two_sum``, ``dd_add``,
``dd_add_d``, ``dd_mul``, ``dd_mul_d``, ``dd_div``) that take and return
plain ``(hi, lo)`` doubles, with the two-sum and two-product steps written
out (Dekker 1971; Hida, Li & Bailey, QD, 2001).  Whether the two-product uses
``math.fma`` or Dekker splitting is fixed once, at import.  The ``DD``
operators are thin wrappers over the primitives, so the O(n^2) loops in
:mod:`quadlsq.system` and :mod:`quadlsq.nodes`, which call the primitives
on unpacked pairs, produce the same bits as the same expression written
with ``DD`` values, only without a method call and a tuple per operation.

Only the operations the moment/solve pipeline needs are implemented.
"""

import math
from fractions import Fraction

_SPLITTER = 134217729.0  # 2**27 + 1, exact in double

_HAVE_FMA = hasattr(math, "fma")


def two_sum(a, b):
    """Return (s, e) with s = fl(a+b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# -- float-pair primitives -------------------------------------------------
#
# Each takes and returns plain doubles (hi, lo), with two-sum (Knuth), fast
# two-sum (Dekker) and two-product (FMA when the interpreter has math.fma,
# Dekker splitting otherwise) written out in place.  Loops that run O(n^2)
# times call these directly on unpacked pairs, so they pay no method
# dispatch and build no DD objects.  The order of the operations is part of
# the contract: tests/test_kernels.py compares every primitive bit for bit
# with a frozen copy of the scalar DD route, and every stored value of the
# pipeline depends on it.


def dd_add(ah, al, bh, bl):
    """(ah + al) + (bh + bl): two two-sums, renormalised twice."""
    s = ah + bh
    v = s - ah
    e = (ah - (s - v)) + (bh - v)
    t = al + bl
    v = t - al
    f = (al - (t - v)) + (bl - v)
    e += t
    h = s + e
    e -= h - s
    e += f
    s = h + e
    return s, e - (s - h)


def dd_add_d(ah, al, b):
    """(ah + al) + b for a double b."""
    s = ah + b
    v = s - ah
    e = (ah - (s - v)) + (b - v)
    e += al
    h = s + e
    return h, e - (h - s)


if _HAVE_FMA:
    _fma = math.fma

    def dd_mul(ah, al, bh, bl):
        """(ah + al) * (bh + bl), the al*bl term dropped."""
        p = ah * bh
        e = _fma(ah, bh, -p)
        e += ah * bl + al * bh
        h = p + e
        return h, e - (h - p)

    def dd_mul_d(ah, al, b):
        """(ah + al) * b for a double b."""
        p = ah * b
        e = _fma(ah, b, -p)
        e += al * b
        h = p + e
        return h, e - (h - p)

else:

    def dd_mul(ah, al, bh, bl):
        """(ah + al) * (bh + bl), the al*bl term dropped."""
        p = ah * bh
        c = _SPLITTER * ah
        xh = c - (c - ah)
        xl = ah - xh
        c = _SPLITTER * bh
        yh = c - (c - bh)
        yl = bh - yh
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += ah * bl + al * bh
        h = p + e
        return h, e - (h - p)

    def dd_mul_d(ah, al, b):
        """(ah + al) * b for a double b."""
        p = ah * b
        c = _SPLITTER * ah
        xh = c - (c - ah)
        xl = ah - xh
        c = _SPLITTER * b
        yh = c - (c - b)
        yl = b - yh
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += al * b
        h = p + e
        return h, e - (h - p)


def dd_div(ah, al, bh, bl):
    """(ah + al) / (bh + bl): long division with two refinement steps."""
    q1 = ah / bh
    ph, pl = dd_mul_d(bh, bl, q1)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = dd_mul_d(bh, bl, q2)
    rh, rl = dd_add(rh, rl, -ph, -pl)
    q3 = rh / bh
    s = q1 + q2
    e = q2 - (s - q1)
    e += q3
    h = s + e
    return h, e - (h - s)


def _dd(pair):
    return tuple.__new__(DD, pair)


class DD(tuple):
    """Immutable double-double scalar, stored as the tuple (hi, lo).

    The operators are thin wrappers over the float-pair primitives above,
    so a DD expression and the same primitives applied to its parts give
    the same bits.
    """

    __slots__ = ()

    def __new__(cls, hi=0.0, lo=0.0):
        return tuple.__new__(cls, (float(hi), float(lo)))

    def __float__(self):
        return self[0] + self[1]

    def __repr__(self):
        return f"DD({self[0]!r}, {self[1]!r})"

    def __bool__(self):
        return self[0] != 0.0 or self[1] != 0.0

    def __neg__(self):
        return _dd((-self[0], -self[1]))

    def __abs__(self):
        if self[0] < 0.0 or (self[0] == 0.0 and self[1] < 0.0):
            return _dd((-self[0], -self[1]))
        return self

    def __add__(self, other):
        if isinstance(other, DD):
            return _dd(dd_add(self[0], self[1], other[0], other[1]))
        return _dd(dd_add_d(self[0], self[1], float(other)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DD):
            return _dd(dd_add(self[0], self[1], -other[0], -other[1]))
        return _dd(dd_add_d(self[0], self[1], -float(other)))

    def __rsub__(self, other):
        return _dd(dd_add_d(-self[0], -self[1], float(other)))

    def __mul__(self, other):
        if isinstance(other, DD):
            return _dd(dd_mul(self[0], self[1], other[0], other[1]))
        return _dd(dd_mul_d(self[0], self[1], float(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DD):
            return _dd(dd_div(self[0], self[1], other[0], other[1]))
        return _dd(dd_div(self[0], self[1], float(other), 0.0))

    def __rtruediv__(self, other):
        return _dd(dd_div(float(other), 0.0, self[0], self[1]))


ZERO = DD(0.0)


def as_dd(x):
    """Promote a real scalar to DD (exact for floats and small ints)."""
    if isinstance(x, DD):
        return x
    return DD(x)


def from_fraction(x):
    """The DD nearest a rational: hi correctly rounded, lo the rounded rest.

    A value beyond the double range gives +-inf, as a double operation
    would.
    """
    try:
        hi = float(x)
    except OverflowError:
        return DD(math.inf if x > 0 else -math.inf)
    return DD(hi, float(x - Fraction(hi)))
