"""The integration interval, its input check, and dense polynomials.

:class:`Interval` and its check are what the rest of the package uses of
this module.  :class:`Polynomial` has no caller in the package: the basis
polynomials are built exactly in :mod:`quadlsq.basis` and the CLI's
``poly:`` integrand is evaluated on ``Fraction``s.  It is kept for the
public API, and because the benchmark's tracer looks up its double-double
methods and the ``DD`` operators it runs on by name.

Polynomials are immutable sequences of coefficients in the monomial basis,
lowest degree first.  Coefficients are carried internally as double-double
pairs, and the public accessors return doubles.

:meth:`Polynomial.integrate` integrates with the weight w(x) = 1, the one
weight of every rule in scope.
"""

import math
from dataclasses import dataclass
from decimal import Decimal

from .ddouble import DD, ZERO, as_dd


def _as_double(value, what):
    """float(value); an exact number beyond the double range, on which
    float() raises ``OverflowError``, is a ``ValueError`` naming ``what``."""
    try:
        return float(value)
    except OverflowError:  # Fraction has no format spec before 3.12
        approx = Decimal(value.numerator) / Decimal(value.denominator)
        raise ValueError(f"{what} {approx:.6g} is outside the double range") from None


def _double_endpoint(value):
    return _as_double(value, "interval endpoint")


def _checked_interval(a, b, *, convert=_double_endpoint):
    """(convert(a), convert(b)) if both are finite and the first is the
    smaller, else ``ValueError`` showing a and b as passed; by default the
    endpoints become doubles, and one beyond the double range is a
    ``ValueError`` as well."""
    lo, hi = convert(a), convert(b)
    if any(isinstance(e, float) and not math.isfinite(e) for e in (lo, hi)):
        raise ValueError(f"non-finite interval: ({a}, {b})")
    if not lo < hi:
        raise ValueError(f"invalid interval: need a < b, got ({a}, {b})")
    return lo, hi


@dataclass(frozen=True)
class Interval:
    """Integration interval (a, b) with finite a < b.  Defaults to (-1, 1)."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        a, b = _checked_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self):
        return self.b - self.a

    @property
    def mid(self):
        """The centre, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.a + 0.5 * self.b

    @property
    def rad(self):
        """The half-length, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.b - 0.5 * self.a


class Polynomial:
    """Immutable dense polynomial; trailing zero coefficients are trimmed.

    The zero polynomial keeps exactly one coefficient, 0, and reports
    degree 0 (the index of its last stored coefficient).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        cs = [as_dd(c) for c in coeffs]
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self):
        """Coefficients rounded to ordinary doubles, lowest degree first."""
        return tuple(float(c) for c in self._coeffs)

    def degree(self):
        return len(self._coeffs) - 1

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    # -- evaluation ------------------------------------------------------

    def _eval_dd(self, x):
        """Horner evaluation at a double abscissa, in double-double."""
        x = float(x)
        acc = self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * x + c
        return acc

    def eval(self, x):
        """Evaluate at x by Horner's scheme; returns a double."""
        return float(self._eval_dd(x))

    __call__ = eval

    # -- algebra ---------------------------------------------------------

    def mul_linear(self, root):
        """Return self(x) * (x - root); the degree grows by exactly one."""
        root = float(root)
        cs = self._coeffs
        out = [ZERO] * (len(cs) + 1)
        for k, c in enumerate(cs):
            out[k] = out[k] - c * root
            out[k + 1] = c
        p = object.__new__(Polynomial)
        object.__setattr__(p, "_coeffs", tuple(out))
        return p

    # -- integration -----------------------------------------------------

    def _integrate_dd(self, interval):
        """Definite integral over the interval, accumulated in double-double.

        Sum of c_k (b^(k+1) - a^(k+1)) / (k+1).  The endpoint powers are
        built by identical multiplication chains, so on a symmetric interval
        the odd-monomial terms cancel exactly and contribute 0.
        """
        a, b = interval.a, interval.b
        pa = DD(1.0)
        pb = DD(1.0)
        total = ZERO
        for k, c in enumerate(self._coeffs):
            pa = pa * a
            pb = pb * b
            if c:
                total = total + c * (pb - pa) / (k + 1)
        return total

    def integrate(self, interval=None):
        """Definite integral over the interval (default (-1, 1))."""
        return float(self._integrate_dd(interval or Interval()))

