"""Exception hierarchy for numerical failures.

Input problems (bad node files, unsupported node counts, nodes out of order)
raise plain ``ValueError``.  Failures of the numerics themselves derive from
:class:`NumericalFailure` so callers can distinguish the two.
"""


class NumericalFailure(ArithmeticError):
    """Base class for failures of the numerical machinery."""


class DegreeOverflowError(NumericalFailure):
    """No extended moment exceeded the zero threshold up to index 2n.

    Degree detection is guaranteed to terminate by index 2n, so hitting this
    signals a misconfigured zero threshold, not a property of the rule.
    """


class MomentOverflowError(NumericalFailure):
    """A moment of the fundamental system is not a finite double.

    The centred monomial moments grow like (half-length)^(2n+1), so a wide
    interval at large n leaves the double range; the moments built from
    them are then inf or nan, and neither the degree nor mu_Q can be read
    from them.
    """


class SingularDiagonalError(NumericalFailure):
    """A diagonal entry of the triangular block underflowed to zero."""


class SingularSystemError(NumericalFailure):
    """A dense elimination met a zero pivot, or a system lies outside the
    range in which an oracle can solve it."""


class ConvergenceError(NumericalFailure):
    """Gauss-Legendre nodes could not be computed: LAPACK's eigensolver for
    the starting values did not converge, or a root failed its acceptance
    check after the one double-double Newton step.  No iteration budget is
    involved; the Newton step is taken once."""


class SelfCheckError(NumericalFailure):
    """An internal cross-check failed, indicating a broken computation."""
