"""Scale wall times to a fixed host speed.

Shared hosts drift in speed.  On a two-vCPU KVM guest (Xeon, 2.1 GHz)
every pass of pure-Python work slowed by up to 1.6x for seconds to
minutes at a time while a neighbour was busy, and the CPU time of the
process slowed with it, so neither wall time nor CPU time is steady
there.  Medians over a 20 s run varied by 20-30% from run to run.

The benchmark therefore times a fixed calibration loop just before and
just after each rule, outside the rule's time, and in each ``setup_s``
child right after its report.  The loop does the two kinds of work
quadlsq does at the baseline, Horner evaluation in double-double-like
tuple arithmetic and in exact Fractions, with its own code, so a change
to the package cannot move it.  Every reported time is multiplied by
``REF_S`` over the mean of the loop times around it: the time it would
have taken on a host where the loop takes ``REF_S``.  Over two sets of
ten runs per workload the spread (q3 - q1) / median of the scaled
medians of the per-rule times stayed at 1.2-6.0%, while the raw ones
moved by 7-21%.  The raw figures are printed next to the scaled ones.
"""

import time
from fractions import Fraction

#: Loop time the reported figures are scaled to: roughly the loop's time
#: on an idle 2.1 GHz Xeon guest with CPython 3.11.
REF_S = 3e-4
LOOP_REPEATS = 3
_SPLIT = 134217729.0  # 2**27 + 1


class _Pair(tuple):
    """A double-double-like value: error-free sums and products of tuples."""

    __slots__ = ()

    def __add__(self, other):
        a, b = self[0], other[0]
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb) + self[1] + other[1]
        h = s + e
        return tuple.__new__(_Pair, (h, e - (h - s)))

    def __mul__(self, other):
        a, b = self[0], other[0]
        p = a * b
        c = _SPLIT * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLIT * b
        bh = c - (c - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * other[1] + self[1] * b
        h = p + e
        return tuple.__new__(_Pair, (h, e - (h - p)))


_COEFFS = [_Pair((1.0 / (k + 1), 0.0)) for k in range(64)]
_X = _Pair((0.7, 0.0))
# Fractions with 52-bit denominators, as the exact oracle sees double nodes.
_FRACTIONS = [Fraction(2 ** 52 + 977 * k + 1, 2 ** 52 + 31 * k) for k in range(24)]
_XF = Fraction(3602879701896397, 2 ** 52)


def _loop():
    """Horner evaluations in _Pair arithmetic and in exact Fractions.

    The two halves take about the same time.  Pure-Python tuple work and
    big-integer work slow down by different factors on a busy host; the
    blend tracks both the double-double pipeline and the exact oracle.
    """
    acc = _Pair((0.0, 0.0))
    for _ in range(2):
        for c in _COEFFS:
            acc = acc * _X + c
    exact = Fraction(0)
    for c in _FRACTIONS:
        exact = exact * _XF + c
    return acc, exact


def loop_s():
    """Best of a few timings of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(*loop_times):
    """Factor that turns a wall time into reference time, given the loop
    times measured just before and just after it."""
    return REF_S * len(loop_times) / sum(loop_times)
