"""Node-dependent canonical basis and its extension past degree n-1.

Given ordered nodes t_1 < ... < t_n, the canonical basis is

    phi_0 = 1,            phi_j = phi_{j-1}(x) * (x - t_j),   1 <= j <= n-1,

so the zeros of phi_j are exactly t_1..t_j.  The basis is extended with

    q_n = phi_{n-1}(x) * (x - t_n),
    q_j = q_{j-1}(x) * (x - t_{j-n}),   n < j <= 2n,

through degree 2n.  Every q_j vanishes at all n nodes, and since the degree
of exactness of an interpolatory rule is at most 2n-1, the first nonzero
moment among I(q_n)..I(q_2n) always exists, so carrying the extension one
index past 2n-1 guarantees degree detection terminates.

:func:`_basis` is the one construction of these polynomials, on exact
integers in X = D x; the exact oracle runs on it, and :func:`build_basis`
gives them as ``Fraction`` coefficients in x, for inspection and tests.
``system`` never forms coefficients: it works from the node differences.
Exact values have their one integer form here too: every exact
computation reads the grid X = D x of :func:`_on_grid`, the power chain
:func:`_power_differences` and exact :func:`_horner`.

The input checks of a rule live here, next to their types: the node
check, which :class:`NodeSet` runs on doubles and the exact oracle and the
node-file reader on exact values, and the interval check, which
:class:`Interval` runs on doubles and the exact oracle on exact values.
"""

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain


def _as_double(value, what):
    """float(value); an exact number beyond the double range, on which
    float() raises ``OverflowError``, is a ``ValueError`` naming ``what``."""
    try:
        return float(value)
    except OverflowError:  # Fraction has no format spec before 3.12
        approx = Decimal(value.numerator) / Decimal(value.denominator)
        raise ValueError(f"{what} {approx:.6g} is outside the double range") from None


def _checked_interval(a, b, *, convert=partial(_as_double, what="interval endpoint")):
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
    def mid(self):
        """The centre, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.a + 0.5 * self.b

    @property
    def rad(self):
        """The half-length, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.b - 0.5 * self.a


def _checked_nodes(nodes):
    """The nodes as a tuple if there is at least one, each is finite and
    each is below the next, else ``ValueError``.  Exact values (ints,
    Fractions) are finite; only floats are tested."""
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("a rule needs at least one node")
    for t in nodes:
        if isinstance(t, float) and not math.isfinite(t):
            raise ValueError(f"non-finite node: {t}")
    for a, b in zip(nodes, nodes[1:]):
        if not a < b:
            raise ValueError(f"unordered nodes: {a} !< {b}")
    return nodes


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing finite abscissas plus the integration interval.

    Nodes may lie outside the interval; only the ordering is required.
    An exact value beyond the double range is a ``ValueError``.
    """

    nodes: tuple
    interval: Interval = field(default_factory=Interval)

    def __post_init__(self):
        nodes = tuple(_as_double(t, "node") for t in self.nodes)
        object.__setattr__(self, "nodes", _checked_nodes(nodes))

    @property
    def n(self):
        return len(self.nodes)


def _on_grid(values):
    """(D, [D v for v in values]), D the least common denominator of Python
    ints, floats or Fractions (a power of two for doubles)."""
    ratios = [v.as_integer_ratio() for v in values]
    D = math.lcm(*(d for _, d in ratios))
    return D, [p * (D // d) for p, d in ratios]


def _power_differences(lo, hi):
    """hi^k - lo^k, k = 1, 2, ...: k times the integral of X^(k-1) over (lo, hi)."""
    pa, pb = lo, hi
    while True:
        yield pb - pa
        pa *= lo
        pb *= hi


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mul_linear(coeffs, root):
    """Ascending integer coefficients of p(X) * (X - root)."""
    out = [0, *coeffs]
    for k, c in enumerate(coeffs):
        out[k] -= root * c
    return out


def _basis(T):
    """Integer coefficients in X of phi_0..phi_{n-1}, then q_n..q_{2n}.

    Each polynomial is the one before times (X - T_r), r running through
    the nodes twice, and is built only when the caller asks for it.
    """
    p = [1]
    yield p
    for t in chain(T, T):
        p = _mul_linear(p, t)
        yield p


def build_basis(ns):
    """P_0..P_{2n} (phi_0..phi_{n-1}, then q_n..q_{2n}; P_j integrates to
    mu_j in :mod:`quadlsq.system`) as tuples of exact ``Fraction``
    coefficients, lowest degree first.  With the nodes on the grid
    T_i = D t_i of :func:`_on_grid`, :func:`_basis` gives D^j P_j(X / D), so
    coefficient k of P_j is an integer over D^(j - k)."""
    D, T = _on_grid(ns.nodes)
    return tuple(tuple(Fraction(c, D ** (j - k)) for k, c in enumerate(p))
                 for j, p in enumerate(_basis(T)))
