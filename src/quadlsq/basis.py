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

:func:`build_basis` gives these polynomials with explicit coefficients, as a
view for inspection and tests.  The fundamental system does not use it:
``system`` works from the node differences and never forms coefficients.

The one node check lives here: :class:`NodeSet` runs it on doubles, the
exact oracle and the node-file reader on exact values.
"""

import math
from dataclasses import dataclass, field

from .poly import Interval, Polynomial, _as_double


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


@dataclass(frozen=True)
class CanonicalBasis:
    """phis holds phi_0..phi_{n-1}; qs holds q_n..q_{2n}."""

    phis: tuple
    qs: tuple

    @property
    def n(self):
        return len(self.phis)

    def q(self, j):
        """The extended polynomial q_j, n <= j <= 2n."""
        return self.qs[j - self.n]


def build_basis(ns):
    """Construct the canonical basis and its extension for a node set.

    The j-th factor is x - t for the j-th node of ``ns.nodes + ns.nodes``,
    the root order of the moment scan in :mod:`quadlsq.system`."""
    n = ns.n
    polys = [Polynomial([1.0])]
    for t in ns.nodes + ns.nodes:
        polys.append(polys[-1].mul_linear(t))
    return CanonicalBasis(phis=tuple(polys[:n]), qs=tuple(polys[n:]))
