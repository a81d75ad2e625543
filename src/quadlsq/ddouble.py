"""Double-double arithmetic: error-free transformation pairs.

A :class:`DD` value stores an unevaluated sum ``hi + lo`` of two doubles
with ``|lo| <= 0.5 ulp(hi)``, giving roughly 106 significand bits.  This is
enough to accumulate the moments of polynomials up to degree ~130 without
the catastrophic cancellation that plain doubles suffer when the result is
ten orders of magnitude below the largest term.

The arithmetic lives in float-pair primitives (``two_sum``, ``dd_add``,
``dd_mul``, ``dd_div`` and the written-out rows :func:`dd_dot` and
:func:`dd_dot2`) that take and return plain ``(hi, lo)`` doubles, with the
two-sum and two-product steps written out (Dekker 1971; Hida, Li &
Bailey, QD, 2001).  Each operation has one primitive: a double b is the
pair (b, 0.0), with the bits of the shorter double-operand forms (see
:func:`dd_add` and :func:`dd_mul`).  The two-product has one form on
every interpreter: Dekker's split by 2^27 + 1, never ``math.fma``, so that
a result does not depend on the Python version, and the overflow limit of
:mod:`quadlsq.system` is derived for it.  Each ``DD`` operator is one call
of a primitive; the class serves only :class:`quadlsq.poly.Polynomial`.

The O(n^2) loops share two written-out rows.  :func:`dd_dot` returns the
list of its running sums: the last rows of the normal-equations oracle's
elimination and its back-substitution take the last, and the moment
recurrence of :mod:`quadlsq.system` takes the whole list as its next
anti-diagonal.  :func:`dd_dot2` returns the whole sums of two such rows
over the same pairs, each pair split once for both: the backward pass
(omega and tau) and the residual (r(omega) and r(z*)) walk A once per
vector pair with it.  The running products of :mod:`quadlsq.system` and
the Legendre recurrence of :mod:`quadlsq.nodes` write the primitives out
in place.  An operand that a loop reuses is split once, outside it.
Each such loop performs the operations of ``dd_mul`` then ``dd_add`` in
their order (a product by a double included, see :func:`dd_mul`), so
it produces the same bits as the primitives, and as the same expression
written with ``DD`` values, only without a call per operation.

The primitives are plain operator code, so on numpy float64 arrays they
run elementwise, with broadcasting, and give every element the bits of
the scalar call, signed zeros included (``tests/test_kernels.py`` checks
``dd_add`` and ``dd_mul``): the normal-equations oracle forms its Gram
matrix and eliminates all but its last rows this way, with no second
arithmetic written for arrays.

Exact rationals enter as integer ratios, each rounded once by
:func:`dd_ratio`.

Only the operations the moment/solve pipeline needs are implemented.
"""

import math

_SPLITTER = 134217729.0  # 2**27 + 1, exact in double


def two_sum(a, b):
    """Return (s, e) with s = fl(a+b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# -- float-pair primitives -------------------------------------------------
#
# Each takes and returns plain doubles (hi, lo), with two-sum (Knuth), fast
# two-sum (Dekker) and two-product (Dekker splitting) written out in place.
# The order of the operations is part of the contract: tests/test_kernels.py
# compares every primitive bit for bit with a frozen copy of the scalar DD
# route, and every stored value of the pipeline depends on it.


def dd_add(ah, al, bh, bl):
    """(ah + al) + (bh + bl): two two-sums, renormalised twice.

    A double b is added as (b, +-0.0), with the bits of the one-sum form
    (two_sum(ah, b), e += al, one renormalisation) on a normalised pair:
    al + 0.0 adds to e as al does, the second renormalisation returns the
    first's pair, and that lo is never -0, so adding the zero f keeps it.
    ``tests/test_kernels.py`` checks it bit for bit.
    """
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


def dd_mul(ah, al, bh, bl):
    """(ah + al) * (bh + bl), the al*bl term dropped.

    A double b is multiplied as (b, +-0.0), with the bits of the product
    by a double, whose cross term is al * b alone, NaN payloads aside: the
    error term e, summed before the cross terms are added, is never -0
    (x - y is -0 only for x = -0, y = +0, and xh yh and p = ah b are zeros
    of one sign), so adding ah * 0.0 + al * b instead of al * b cannot
    change it.  The inlined loops take the full product for this reason.
    """
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


def split_operand(h, l):
    """(h, l, yh, yl): a pair with the Dekker split h = yh + yl appended,
    the operand form of :func:`dd_dot`, so a row reusing it splits it once."""
    c = _SPLITTER * h
    yh = c - (c - h)
    return h, l, yh, h - yh


def split_operands(pairs):
    """:func:`split_operand` of each (hi, lo) pair, as a list."""
    return [split_operand(h, l) for h, l in pairs]


def dd_dot(sh, sl, pairs, operands):
    """The running sums of (sh + sl) + sum of a * b over the (ah, al) pairs
    and the split operands of :func:`split_operands`, in order, stopping at
    the shorter: the list [s_0, s_1, ..., s_k] of (hi, lo) pairs, s_0 =
    (sh, sl) and s_k the whole sum, which a row sum takes as ``[-1]``.

    Each step is ``dd_mul(ah, al, bh, bl)`` then ``dd_add`` onto the
    running sum, written out with the split of bh taken from the operand,
    so every s_i has the bits of that loop.  A row that subtracts its
    products passes the negated operands.  Rounding and the split are
    symmetric in sign, so ``dd_mul(a, -b)`` is ``-dd_mul(a, b)`` except
    that an exactly cancelled term may be a zero of the other sign, which
    no sum in ``dd_add`` can pass on to its result; ``tests/test_kernels.py``
    checks every running sum bit for bit against ``dd_add(s, -dd_mul(a, b))``,
    signed zeros included.
    """
    sums = [(sh, sl)]
    for (ah, al), (bh, bl, yh, yl) in zip(pairs, operands):
        p = ah * bh
        c = _SPLITTER * ah
        xh = c - (c - ah)
        xl = ah - xh
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += ah * bl + al * bh
        ph = p + e
        pl = e - (ph - p)
        s = sh + ph
        v = s - sh
        e = (sh - (s - v)) + (ph - v)
        t = sl + pl
        v = t - sl
        f = (sl - (t - v)) + (pl - v)
        e += t
        h = s + e
        e -= h - s
        e += f
        sh = h + e
        sl = e - (sh - h)
        sums.append((sh, sl))
    return sums


def dd_dot2(sh, sl, th, tl, pairs, ops1, ops2):
    """The whole sums of two :func:`dd_dot` rows over the same pairs,
    (sh + sl) with ``ops1`` and (th + tl) with ``ops2``, as (sh, sl, th, tl);
    the operand lists are of one length.

    Each pair is split once per step for both products, and each sum gets
    the operations of its own ``dd_dot`` row in their order, so both have
    its bits (``tests/test_kernels.py`` checks this, signed zeros included).
    """
    for (ah, al), (bh, bl, yh, yl), (ch, cl, zh, zl) in zip(pairs, ops1, ops2):
        c = _SPLITTER * ah
        xh = c - (c - ah)
        xl = ah - xh
        p = ah * bh
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += ah * bl + al * bh
        ph = p + e
        pl = e - (ph - p)
        s = sh + ph
        v = s - sh
        e = (sh - (s - v)) + (ph - v)
        t = sl + pl
        v = t - sl
        f = (sl - (t - v)) + (pl - v)
        e += t
        h = s + e
        e -= h - s
        e += f
        sh = h + e
        sl = e - (sh - h)
        p = ah * ch
        e = ((xh * zh - p) + xh * zl + xl * zh) + xl * zl
        e += ah * cl + al * ch
        ph = p + e
        pl = e - (ph - p)
        s = th + ph
        v = s - th
        e = (th - (s - v)) + (ph - v)
        t = tl + pl
        v = t - tl
        f = (tl - (t - v)) + (pl - v)
        e += t
        h = s + e
        e -= h - s
        e += f
        th = h + e
        tl = e - (th - h)
    return sh, sl, th, tl


def dd_div(ah, al, bh, bl):
    """(ah + al) / (bh + bl): long division with two refinement steps."""
    q1 = ah / bh
    ph, pl = dd_mul(bh, bl, q1, 0.0)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = dd_mul(bh, bl, q2, 0.0)
    rh, rl = dd_add(rh, rl, -ph, -pl)
    q3 = rh / bh
    s = q1 + q2
    e = q2 - (s - q1)
    e += q3
    h = s + e
    return h, e - (h - s)


def _dd(pair):
    return tuple.__new__(DD, pair)


def _parts(x):
    """A DD as its (hi, lo), any other real as (x, 0.0)."""
    return x if isinstance(x, DD) else (float(x), 0.0)


class DD(tuple):
    """Immutable double-double scalar, stored as the tuple (hi, lo).

    Each operator is one call of a float-pair primitive above, with a
    plain real taken as the pair (x, 0.0), so a DD expression and the same
    primitives applied to its parts give the same bits.
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
        return _dd(dd_add(*self, *_parts(other)))

    __radd__ = __add__

    def __sub__(self, other):
        bh, bl = _parts(other)
        return _dd(dd_add(*self, -bh, -bl))

    def __rsub__(self, other):
        return _dd(dd_add(-self[0], -self[1], *_parts(other)))

    def __mul__(self, other):
        return _dd(dd_mul(*self, *_parts(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _dd(dd_div(*self, *_parts(other)))

    def __rtruediv__(self, other):
        return _dd(dd_div(*_parts(other), *self))


ZERO = DD(0.0)


def as_dd(x):
    """Promote a real scalar to DD (exact for floats and small ints)."""
    if isinstance(x, DD):
        return x
    return DD(x)


def dd_ratio(num, den):
    """The integer ratio num / den, den > 0, as a (hi, lo) pair: hi = num / den
    and, with hi = p / q, lo = (num q - den p) / (den q), both integer true
    divisions, which CPython rounds correctly, subnormals included.  A
    ratio beyond the double range gives (+-inf, 0.0)."""
    try:
        hi = num / den
    except OverflowError:
        return (math.inf if num > 0 else -math.inf), 0.0
    p, q = hi.as_integer_ratio()
    return hi, (num * q - den * p) / (den * q)


def _ceil_log2(x):
    """The least integer k with x <= 2^k, for a finite double x > 0."""
    m, e = math.frexp(x)
    return e - 1 if m == 0.5 else e
