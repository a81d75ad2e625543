"""Exception hierarchy for numerical failures.

Input problems (bad node files, unsupported node counts, nodes out of order)
raise plain ``ValueError``.  Failures of the numerics themselves derive from
:class:`NumericalFailure` so callers can distinguish the two.
"""


class NumericalFailure(ArithmeticError):
    """Base class for failures of the numerical machinery."""


class DegreeOverflowError(NumericalFailure):
    """No extended moment exceeded the zero threshold up to index 2n.

    The exact mu_2n, the integral of the squared node polynomial, is
    positive, so some exact extended moment is nonzero, but no computed
    |mu_j|, n <= j <= 2n, rose above the threshold.  That happens with an
    ``eps_deg`` set too high, and also with the default threshold, 1e-12
    times max(1, |mu_0|), wherever the genuine |mu_Q| lies below it:
    Gauss-Legendre n = 21 on (-1, 1) has mu_Q = 7.1e-13 against 2e-12, and
    a short interval scales every moment down.  The failure is typed, not
    a wrong degree; the message names the largest |mu_j| and the threshold.
    """


class MomentOverflowError(NumericalFailure):
    """A moment of the fundamental system, or an exact monomial moment of
    :func:`quadlsq.degree_by_monomials`, is not a finite double.

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
    """Two routes to one value disagree beyond the cross-check's tolerance."""
