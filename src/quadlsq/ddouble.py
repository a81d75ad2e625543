"""Double-double arithmetic: error-free transformation pairs.

A :class:`DD` value stores an unevaluated sum ``hi + lo`` of two doubles
with ``|lo| <= 0.5 ulp(hi)``, giving roughly 106 significand bits.  This is
enough to accumulate the moments of polynomials up to degree ~130 without
the catastrophic cancellation that plain doubles suffer when the result is
ten orders of magnitude below the largest term.

Only the operations the moment/solve pipeline needs are implemented.
"""

import math
from fractions import Fraction

_SPLITTER = 134217729.0  # 2**27 + 1, exact in double

_HAVE_FMA = hasattr(math, "fma")


def _two_sum(a, b):
    """Return (s, e) with s = fl(a+b) and s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """Like _two_sum but requires |a| >= |b| (or a == 0)."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """Return (p, e) with p = fl(a*b) and p + e == a * b exactly."""
    p = a * b
    if _HAVE_FMA:
        return p, math.fma(a, b, -p)
    # Dekker splitting fallback
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DD(tuple):
    """Immutable double-double scalar, stored as the tuple (hi, lo)."""

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
        return tuple.__new__(DD, (-self[0], -self[1]))

    def __abs__(self):
        if self[0] < 0.0 or (self[0] == 0.0 and self[1] < 0.0):
            return -self
        return self

    def __add__(self, other):
        if isinstance(other, DD):
            s, e = _two_sum(self[0], other[0])
            t, f = _two_sum(self[1], other[1])
            e += t
            s, e = _fast_two_sum(s, e)
            e += f
            return tuple.__new__(DD, _fast_two_sum(s, e))
        s, e = _two_sum(self[0], float(other))
        e += self[1]
        return tuple.__new__(DD, _fast_two_sum(s, e))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DD):
            return self.__add__(tuple.__new__(DD, (-other[0], -other[1])))
        return self.__add__(-float(other))

    def __rsub__(self, other):
        return (-self).__add__(float(other))

    def __mul__(self, other):
        if isinstance(other, DD):
            p, e = _two_prod(self[0], other[0])
            e += self[0] * other[1] + self[1] * other[0]
            return tuple.__new__(DD, _fast_two_sum(p, e))
        f = float(other)
        p, e = _two_prod(self[0], f)
        e += self[1] * f
        return tuple.__new__(DD, _fast_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other)
        # long division with two refinement steps
        q1 = self[0] / other[0]
        r = self - other * q1
        q2 = r[0] / other[0]
        r = r - other * q2
        q3 = r[0] / other[0]
        s, e = _fast_two_sum(q1, q2)
        return tuple.__new__(DD, _fast_two_sum(s, e + q3))

    def __rtruediv__(self, other):
        return DD(other).__truediv__(self)


ZERO = DD(0.0)
ONE = DD(1.0)


def as_dd(x):
    """Promote a real scalar to DD (exact for floats and small ints)."""
    if isinstance(x, DD):
        return x
    return DD(x)


def exact_diff(a, b):
    """a - b for two doubles, exactly, as a DD (Knuth's two-sum)."""
    return tuple.__new__(DD, _two_sum(a, -b))


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
