"""Dense polynomials.

:class:`Polynomial` has no caller in the package: the basis polynomials
are built exactly in :mod:`quadlsq.basis` and the CLI's ``poly:``
integrand is evaluated on ``Fraction``s.  It is kept for the public API,
and because the benchmark's tracer looks up its double-double methods and
the ``DD`` operators it runs on by name.

Polynomials are immutable sequences of coefficients in the monomial basis,
lowest degree first.  Coefficients are carried internally as double-double
pairs, and the public accessors return doubles.

:meth:`Polynomial.integrate` integrates with the weight w(x) = 1, the one
weight of every rule in scope.
"""

from .basis import Interval
from .ddouble import DD, ZERO, as_dd


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

