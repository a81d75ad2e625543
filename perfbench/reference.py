"""Exact references for the benchmark's rules.

For every family rule the benchmark runs (four families, n = 2..64) and
for every node set of the custom pool the reference holds:

* ``degree``: for family rules the theoretical degree of exactness of the
  ideal rule.  GL has 2n-1; NC, Fejer and CC have n for odd n and n-1 for
  even n.  For custom node sets the exact degree on their binary nodes.
* ``mu_Q``: the exact moment at index degree+1 on the same binary nodes
  the float pipeline sees, from ``quadlsq.rational_pipeline``, rounded once.
* ``weights``: the exact weights on those binary nodes, each rounded once.
* ``n_omega``: the exact 1-norm of the weights, rounded once.  Sweep CSVs
  carry the weights only through this column.

The custom pool is a fixed set of random rational node sets on (0, 2),
``CUSTOM_POOL_PER_N`` for each n = 3..24, drawn from a generator with a
fixed seed; a run's ``--seed`` picks some of them.  Freezing the pool
lets its references be cached with the family ones, so the oracle of the
code under test never grades itself.

The exact pipeline needs about two minutes for all entries, so the
results are cached in ``reference.json`` next to this file.  Each entry
records a hash of the nodes it was computed from.  If the nodes generated
at run time differ (another libm, say), the entry is recomputed from the
oracle instead of used, and the run reports how many were.

Self-test, which regenerates every entry from the oracle and compares::

    python3 perfbench/reference.py --check

Rewrite the cache::

    python3 perfbench/reference.py --write
"""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

CACHE = Path(__file__).resolve().with_name("reference.json")
FAMILIES = ("newton_cotes", "fejer1", "clenshaw_curtis", "gauss_legendre")
N_MIN, N_MAX = 2, 64
CUSTOM_INTERVAL = (0.0, 2.0)
CUSTOM_N = range(3, 25)
CUSTOM_POOL_PER_N = 8


def theoretical_degree(family, n):
    if family == "gauss_legendre":
        return 2 * n - 1
    return n if n % 2 else n - 1


def nodes_key(ns):
    """Hash of the exact binary nodes and interval of a NodeSet."""
    text = ",".join(float.hex(t) for t in ns.nodes)
    text += f"|{float.hex(ns.interval.a)},{float.hex(ns.interval.b)}"
    return hashlib.sha256(text.encode()).hexdigest()


def exact_reference(q, ns, degree=None):
    """Reference entry for one NodeSet from the exact rational oracle.

    ``degree`` is the theoretical degree for family rules; for custom
    nodes it is left None and the exact degree on the binary nodes is used.
    """
    rr = q.rational_pipeline(ns)
    if degree is None:
        degree = rr.degree
    return {
        "nodes_sha256": nodes_key(ns),
        "degree": degree,
        "mu_Q": float(rr.moments[degree + 1]),
        "weights": [float(w) for w in rr.weights],
        "n_omega": float(sum(abs(w) for w in rr.weights)),
    }


def family_nodeset(q, family, n):
    return q.generate(q.FamilySpec(q.Family(family), n))


def family_reference(q, family, n):
    ns = family_nodeset(q, family, n)
    return exact_reference(q, ns, theoretical_degree(family, n))


def all_family_rules():
    return [(f, n) for f in FAMILIES for n in range(N_MIN, N_MAX + 1)]


def custom_nodes(rng, n, a, b):
    """n increasing rationals on (a, b): a jittered grid, random denominators.

    Node k lies within 0.4 of a cell width from the centre of cell k, and
    is rounded to num/den with den in 100..1000, which moves it by at most
    0.005; adjacent nodes therefore stay at least 0.2*(b-a)/n - 0.01 apart,
    which is positive for every n <= 24 on an interval of length 2.
    """
    h = (b - a) / n
    nodes = []
    for k in range(n):
        x = a + (k + 0.5 + rng.uniform(-0.4, 0.4)) * h
        den = rng.randint(100, 1000)
        nodes.append(Fraction(round(x * den), den))
    return nodes


def custom_pool():
    """{"custom/<n>/<i>": rational nodes} for i < CUSTOM_POOL_PER_N, n in CUSTOM_N."""
    rng = random.Random("custom-verify/pool")
    return {f"custom/{n}/{i}": custom_nodes(rng, n, *CUSTOM_INTERVAL)
            for n in CUSTOM_N for i in range(CUSTOM_POOL_PER_N)}


def custom_nodeset(q, nodes):
    return q.NodeSet(tuple(float(v) for v in nodes), q.Interval(*CUSTOM_INTERVAL))


class References:
    """Cached references, checked against the nodes at run time."""

    def __init__(self, q):
        self._q = q
        self.recomputed = 0
        with open(CACHE, encoding="utf-8") as fh:
            self._rules = json.load(fh)["rules"]

    def get(self, key, ns, degree=None):
        entry = self._rules.get(key)
        if entry is None or entry["nodes_sha256"] != nodes_key(ns):
            entry = exact_reference(self._q, ns, degree)
            self._rules[key] = entry
            self.recomputed += 1
        return entry

    def family(self, family, n):
        return self.get(f"{family}/{n}", family_nodeset(self._q, family, n),
                        theoretical_degree(family, n))


def _regenerate(q):
    rules = {}
    for family, n in all_family_rules():
        rules[f"{family}/{n}"] = family_reference(q, family, n)
        print(f"{family} n={n}", file=sys.stderr, flush=True)
    for key, nodes in custom_pool().items():
        rules[key] = exact_reference(q, custom_nodeset(q, nodes))
    return rules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="regenerate every entry and compare with the cache")
    mode.add_argument("--write", action="store_true", help="rewrite the cache")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import quadlsq as q

    rules = _regenerate(q)
    if args.write:
        with open(CACHE, "w", encoding="utf-8") as fh:
            json.dump({"rules": rules}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {len(rules)} entries to {CACHE}")
        return 0
    with open(CACHE, encoding="utf-8") as fh:
        cached = json.load(fh)["rules"]
    bad = sorted(k for k in rules.keys() | cached.keys()
                 if rules.get(k) != cached.get(k))
    for key in bad:
        print(f"mismatch: {key}")
    print(f"{len(rules) - len(bad)}/{len(rules)} entries match the oracle")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
