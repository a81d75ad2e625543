"""Spans and counters recorded from outside the quadlsq package.

The tracer replaces, for the duration of a traced pass, every public
function of the span layers with a wrapper that records a span, and a few
hot methods with wrappers that only count calls:

* span layers: ``nodes``, ``basis``, ``system``, ``minimax``, ``analysis``,
  ``oracle`` and ``cli``.  A module's public functions are the functions
  it defines whose names do not start with ``_``.  Each one is replaced at
  every import site, i.e. in every ``quadlsq`` module namespace that binds
  it: ``analysis`` and ``cli`` import ``build_system``, ``residual`` and
  ``solve_rule`` by name, so the names are patched where they are looked
  up.  Calls that reach a function through another reference (the node
  generators are called through a dict inside ``nodes.generate``) are
  timed as part of their caller.
* counted methods: ``Polynomial._eval_dd``, ``Polynomial._integrate_dd``
  and ``Polynomial.mul_linear`` (one counter each), and the ``DD``
  operator methods (one counter, ``ddouble.ops``).  DD operators that call
  each other count every call: a subtraction of two DD values is one
  ``__sub__`` and one ``__add__``.  These run millions of times per pass,
  so they get no spans; their time shows in the self time of the span
  layer that calls them.
* ``errors``: each exception of a type defined in ``quadlsq.errors`` is
  counted once, by class, when it first leaves a wrapped function.

A span is ``[name, start_ns, end_ns, parent_index, error]``.  Spans are
kept in memory and written out by the caller at the end of the run.
"""

import inspect
import sys
import time
from collections import Counter

SPAN_LAYERS = ("nodes", "basis", "system", "minimax", "analysis", "oracle", "cli")
POLY_COUNTED = {
    "_eval_dd": "poly.eval_dd.calls",
    "_integrate_dd": "poly.integrate_dd.calls",
    "mul_linear": "poly.mul_linear.calls",
}
DD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__")

NAME, START, END, PARENT, ERROR = range(5)


def public_functions(module):
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Installs the wrappers, records spans and counts, then restores."""

    def __init__(self, q):
        self._q = q
        self.spans = []
        self.counts = Counter()
        self.error_types = tuple(
            obj for obj in vars(sys.modules["quadlsq.errors"]).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
        )
        self._stack = []
        self._restore = []
        # system.build_system: extended moments computed vs used up to mu_Q
        self.ext_moments = Counter()

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        error_types = self.error_types
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else None, False]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[ERROR] = True
                if isinstance(exc, error_types) and not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    counts[f"errors.{type(exc).__name__}.count"] += 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, result)

        wrapped.__wrapped__ = fn
        return wrapped

    @staticmethod
    def _counter(counts, key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe_build_system(self, args, fs):
        ns = args[0]
        self.ext_moments["computed"] += ns.n + 1
        if fs is not None:
            self.ext_moments["used"] += fs.degree + 2 - fs.n

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / remove ------------------------------------------------

    def install(self):
        package = [m for k, m in sys.modules.items()
                   if k == "quadlsq" or k.startswith("quadlsq.")]
        for layer in SPAN_LAYERS:
            module = sys.modules[f"quadlsq.{layer}"]
            for name, fn in public_functions(module).items():
                observe = self._observe_build_system if (layer, name) == (
                    "system", "build_system") else None
                wrapper = self._span(f"{layer}.{name}", fn, observe)
                for site in package:
                    if vars(site).get(name) is fn:
                        self._patch(site, name, wrapper)
        poly = self._q.Polynomial
        for attr, key in POLY_COUNTED.items():
            self._patch(poly, attr, self._counter(self.counts, key, getattr(poly, attr)))
        dd = sys.modules["quadlsq.ddouble"].DD
        for attr in DD_OPERATORS:
            self._patch(dd, attr, self._counter(self.counts, "ddouble.ops",
                                                vars(dd)[attr]))

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- span helpers ----------------------------------------------------

    def open(self, name):
        """Start a span from benchmark code; close it with :meth:`close`."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def close(self, rec, error=False):
        rec[END] = time.perf_counter_ns()
        rec[ERROR] = error
        self._stack.pop()


def self_times_ms(spans):
    """Self time per span name, in ms: duration minus child durations."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = Counter()
    for i, rec in enumerate(spans):
        out[rec[NAME]] += (rec[END] - rec[START] - child[i]) / 1e6
    return out


def failed_ms(spans, name="system.build_system"):
    """Time in ``name`` spans whose rule failed, in ms.

    A rule failed when an exception left one of its spans: the span itself
    or any ancestor ends with the error flag set.
    """
    failed = [False] * len(spans)
    total = 0
    for i, rec in enumerate(spans):  # parents precede children
        parent = rec[PARENT]
        failed[i] = rec[ERROR] or (parent is not None and failed[parent])
    for i, rec in enumerate(spans):
        if rec[NAME] == name and failed[i]:
            total += rec[END] - rec[START]
    return total / 1e6
