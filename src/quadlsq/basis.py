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

The input checks of a rule live here, next to their types: the one
reader of a sequence passed in, :func:`_vector`, which :class:`NodeSet`
runs on its nodes, the exact oracle on its nodes and its (a, b) pair, and
every function that takes a vector with a rule on that vector; the node
check, which :class:`NodeSet` runs on doubles and the exact oracle on
exact values (the node-file reader orders its own, to quote the file);
the interval check, which :class:`Interval` runs on doubles and the exact
oracle on exact values; and the check that an interval passed to
:class:`NodeSet` or :func:`quadlsq.nodes.generate` is an :class:`Interval`.
The base of the package's immutable record types, :class:`_Record`, is
here as well, since every module that defines one imports this one.
"""

import math
from functools import partial
from itertools import chain


def _as_double(value, what):
    """float(value); an exact number beyond the double range, on which
    float() raises ``OverflowError``, is a ``ValueError`` naming ``what``."""
    try:
        return float(value)
    except OverflowError:  # Fraction has no format spec before 3.12
        from decimal import Decimal

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


def _repr(obj, names):
    """``Type(name=value, ...)`` over the named attributes, stored or derived."""
    args = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    return f"{type(obj).__name__}({args})"


class _Record:
    """Base of the package's record types, which are immutable once built.

    A subclass names its fields in ``__match_args__`` (which ``match`` also
    reads), in the order of its ``__init__``.  That ``__init__`` runs the
    type's input check, where it has one, then stores the fields once in
    the instance ``__dict__``, where ``functools.cached_property`` also
    writes.  Setting or deleting an attribute raises ``AttributeError``,
    the repr shows the fields, and a record equals only itself (a
    :class:`_Value` compares its fields).  Pickle, ``copy`` and
    ``deepcopy`` rebuild a record from its fields through ``__init__``, so
    its input check runs again; ``cached_property`` state is never copied,
    and a view is rebuilt, read-only, on first read.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return _repr(self, self.__match_args__)


class _Value(_Record):
    """A record equal to one of its own class with equal fields, and hashed
    by its fields."""

    def _key(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Interval(_Value):
    """Integration interval (a, b) with finite a < b.  Defaults to (-1, 1)."""

    __match_args__ = ("a", "b")

    def __init__(self, a: float = -1.0, b: float = 1.0):
        a, b = _checked_interval(a, b)
        vars(self).update(a=a, b=b)

    @property
    def mid(self):
        """The centre, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.a + 0.5 * self.b

    @property
    def rad(self):
        """The half-length, from the halved endpoints: it cannot overflow."""
        return 0.5 * self.b - 0.5 * self.a


def _checked_interval_type(interval):
    """``interval`` if it is an :class:`Interval`, else ``ValueError``
    naming its type."""
    if not isinstance(interval, Interval):
        raise ValueError(f"the interval must be an Interval, got {type(interval).__name__}")
    return interval


#: Builtin types that iterate but are no ordered sequence of numbers: text
#: and bytes iterate by character, a mapping by key and a set in no order.
_NOT_SEQUENCES = (str, bytes, dict, set, frozenset)


def _vector(x, n=None, entry=float, what="a vector", item="vector entry"):
    """The entries of a sequence of numbers passed in, as a list, each
    through ``entry``: doubles by default, as they are for ``None``.

    The one reader of every sequence passed in: a :class:`NodeSet`'s
    nodes, the exact oracle's nodes and (a, b) pair, and every vector
    passed in with a rule (its weights, z*, a candidate for
    :func:`quadlsq.system.residual`).  x must be an ordered sequence,
    one-dimensional by its ``ndim`` where it has one, of length n (any
    length for n = None), checked before any entry is read.  Text, bytes,
    a mapping and a set raise the ``ValueError`` "expected <what> of
    length n, got <type>"; a column, a row or a 0-d array, a scalar and a
    list of rows "..., got shape ...", another length "..., got <length>".
    A record (a solution, a system, ...) is a ``TypeError``.  An entry
    beyond the double range, on which ``float`` raises ``OverflowError``,
    is the ``ValueError`` of :func:`_as_double` naming ``item``.
    """
    want = f"expected {what}" if n is None else f"expected {what} of length {n}"
    if isinstance(x, _Record):
        raise TypeError(f"{want}, got a {type(x).__name__}: pass one of its vectors")
    if isinstance(x, _NOT_SEQUENCES):
        raise ValueError(f"{want}, got {type(x).__name__}")
    if getattr(x, "ndim", 1) != 1:
        raise ValueError(f"{want}, got shape {x.shape}")
    try:
        x = list(x)
    except TypeError:  # a scalar
        raise ValueError(f"{want}, got shape ()") from None
    if n is not None and len(x) != n:
        raise ValueError(f"{want}, got {len(x)}")
    if entry is None:
        return x
    try:
        return list(map(entry, x))
    except TypeError:  # entries that are no numbers: rows of one length?
        lengths = {len(v) for v in x if hasattr(v, "__len__")}
        if len(lengths) != 1:
            raise
        raise ValueError(f"{want}, got shape {(len(x), *lengths)}") from None
    except OverflowError:  # an int or a Fraction beyond the double range
        for v in x:
            try:
                entry(v)
            except OverflowError:
                _as_double(v, item)
        raise


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


class NodeSet(_Value):
    """Strictly increasing finite abscissas plus the integration interval.

    Nodes may lie outside the interval; only the ordering is required.
    The nodes are read by :func:`_vector`, so text, a mapping, a set or
    rows are a ``ValueError``, as is an exact value beyond the double range.
    """

    __match_args__ = ("nodes", "interval")

    def __init__(self, nodes: tuple, interval: Interval = Interval()):
        nodes = _checked_nodes(_vector(nodes, what="a vector of nodes", item="node"))
        interval = _checked_interval_type(interval)
        vars(self).update(nodes=nodes, interval=interval)

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
    from fractions import Fraction

    D, T = _on_grid(ns.nodes)
    return tuple(tuple(Fraction(c, D ** (j - k)) for k, c in enumerate(p))
                 for j, p in enumerate(_basis(T)))
