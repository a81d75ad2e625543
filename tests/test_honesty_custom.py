"""Honesty ratchet for custom nodes: reports on node sets of five shapes and
on node files, graded exactly.

The family ratchet (``tests/test_honesty.py``) grades generated rules only.
Here 945 node sets are drawn from one ``random.Random(SEED)``: five shapes
on (-1, 1) (``SHAPES``), each mapped to three intervals as mid + rad t,
rounded to doubles, at n = 2..64.  Each is reported as ``analyze --family
custom`` reports it, ``build_report`` on its ``NodeSet``, and graded
against ``rational_pipeline`` on the same binary nodes
(:func:`helpers.grade`):

* right: the exact degree, and mu_Q and N_omega within rel 1e-8 of exact;
* typed: ``build_report`` raised a ``NumericalFailure``;
* wrong: any other row that came back.  A row whose exact mu_Q is outside
  the normal double range is wrong whatever it reports.

``FROZEN`` lists, per interval and shape, the wrong rows W and the typed
rows T; a row in neither is right.  The wrong rows must stay within W, and
the wrong and typed rows together within W and T; the lists may only
shrink.

Node files are graded on the file's exact values: mirrored rules written
as rationals (1/6, 1/2, 5/6 of the interval) and as decimals (k/10 of the
interval, k = 0..10), read by ``read_nodes_file`` and reported on the
doubles ``NodeSet`` rounds them to, as ``analyze --family custom
--nodes-file`` does.  Every one is right.

The exact references of the node sets (node hash, degree, mu_Q and
N_omega) are cached in ``honesty_custom_reference.json`` next to this file.
An entry whose hash does not match the drawn nodes (the Chebyshev shape
uses libm's ``cos``) is recomputed from the exact oracle, and the test
warns how many were.  Rewrite the cache (under a minute)::

    PYTHONPATH=src python tests/test_honesty_custom.py --write
"""

import math
import random
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import quadlsq as q

from helpers import (
    assert_within_frozen, exact_entry, grade, graded_rows, read_ratchet_cache, runs,
    write_ratchet_cache,
)

CACHE = Path(__file__).resolve().with_name("honesty_custom_reference.json")

SEED = 20261021
SHAPES = ("uniform", "mirrored", "chebyshev", "cluster", "equispaced")
INTERVALS = ((-1.0, 1.0), (0.0, 2.0), (0.0, 100.0))
N_RANGE = range(2, 65)

#: (a, b) -> shape -> (W, T): the n of the silently wrong and of the typed
#: rows, as comma-separated n or lo-hi runs.  The counts are right / wrong /
#: typed of the 315 rows when the lists were frozen: 593 / 97 / 255 in all.
FROZEN = {
    # 177 / 17 / 121
    (-1.0, 1.0): {
        "uniform": ("", "43-50,52-64"),
        "mirrored": ("", "42-43,49,51,53-64"),
        "chebyshev": ("25,31-44", "45-64"),
        "cluster": ("", "12-64"),
        "equispaced": ("45,53", "49,51,55,57-64"),
    },
    # 162 / 41 / 112
    (0.0, 2.0): {
        "uniform": ("", "44,48-64"),
        "mirrored": ("5,7,9,11,15,17,19,21,23,25,27,29,31,33,35,37,39,41,43,49,52-53",
                     "45,47-48,51,54-64"),
        "chebyshev": ("25,29,31-44", "45-64"),
        "cluster": ("", "14-64"),
        "equispaced": ("51,53,55", "57-64"),
    },
    # 254 / 39 / 22
    (0.0, 100.0): {
        "uniform": ("", ""),
        "mirrored": ("27,29,31,35,37,39,41,43,45,47,49,51,53,55,57,59-61,63", ""),
        "chebyshev": ("45-64", ""),
        "cluster": ("", "27,32-33,37,41,43,45-49,51-60,64"),
        "equispaced": ("", ""),
    },
}


def _canonical(shape, n, rng):
    """n ascending points of (-1, 1) of one shape, drawn from ``rng``."""
    if shape == "uniform":
        return sorted(rng.uniform(-1.0, 1.0) for _ in range(n))
    if shape == "mirrored":  # about the midpoint
        half = sorted(rng.uniform(0.0, 1.0) for _ in range(n // 2))
        return [-t for t in reversed(half)] + [0.0] * (n % 2) + half
    if shape == "chebyshev":  # jittered by 1e-3/n
        return sorted(math.cos(math.pi * (2 * k + 1) / (2 * n))
                      + rng.uniform(-1.0, 1.0) * 1e-3 / n for k in range(n))
    if shape == "cluster":  # half the nodes in a cluster of width 1e-3
        centre = rng.uniform(-0.9, 0.9)
        return sorted([centre + rng.uniform(0.0, 1e-3) for _ in range(n // 2)]
                      + [rng.uniform(-1.0, 1.0) for _ in range(n - n // 2)])
    # equispaced, jittered by 1e-2/n
    return [-1.0 + (2 * k + 1) / n + rng.uniform(-1.0, 1.0) * 1e-2 / n for k in range(n)]


@cache
def _node_sets():
    """{(interval, shape, n): NodeSet} of the 945 sets, drawn in that order."""
    rng = random.Random(SEED)
    sets = {}
    for interval in INTERVALS:
        a, b = interval
        mid, rad = (a + b) / 2, (b - a) / 2
        for shape in SHAPES:
            for n in N_RANGE:
                nodes = [mid + rad * t for t in _canonical(shape, n, rng)]
                sets[interval, shape, n] = q.NodeSet(nodes, q.Interval(a, b))
    return sets


def _key(interval, shape, n):
    a, b = interval
    return f"{a!r},{b!r}/{shape}/{n}"


def _rows(interval):
    """The rows on the interval, for :func:`helpers.graded_rows`."""
    return [((shape, n), _key(iv, shape, n), ns, "custom", None)
            for (iv, shape, n), ns in _node_sets().items() if iv == interval]


@pytest.mark.parametrize("interval", INTERVALS, ids=lambda iv: f"({iv[0]:g},{iv[1]:g})")
def test_wrong_rows_do_not_grow(interval):
    outcomes, recomputed = graded_rows(_rows(interval), read_ratchet_cache(CACHE))
    if recomputed:
        warnings.warn(f"{recomputed} of {len(outcomes)} exact references on {interval} "
                      "recomputed: the drawn nodes differ from the cache's")
    frozen = FROZEN[interval]
    wrong_ok = {(s, n) for s in SHAPES for n in runs(frozen[s][0])}
    failed_ok = wrong_ok | {(s, n) for s in SHAPES for n in runs(frozen[s][1])}
    assert_within_frozen(outcomes, wrong_ok, failed_ok)


#: Mirrored rules as fractions of their interval: (1/6, 1/2, 5/6) written
#: as rationals, and k/10, k = 0..10, written as decimals.
NODE_FILES = {
    "rational": ([Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)], str),
    "decimal": ([Fraction(k, 10) for k in range(11)],
                lambda v: str(Decimal(v.numerator) / Decimal(v.denominator))),
}


@pytest.mark.parametrize("interval", [(0, 1), (0, 2), (-1, 1)], ids=str)
@pytest.mark.parametrize("name", NODE_FILES)
def test_node_files_are_right(tmp_path, name, interval):
    fractions, write = NODE_FILES[name]
    a, b = interval
    values = [a + (b - a) * p for p in fractions]
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{write(v)}\n" for v in values), encoding="utf-8")
    exact = q.read_nodes_file(path)
    assert exact == values
    rr = q.rational_pipeline(exact, (a, b))
    entry = {"degree": rr.degree, "mu_Q": float(rr.mu_Q),
             "n_omega": float(sum(map(abs, rr.weights)))}
    assert grade(q.NodeSet(exact, q.Interval(a, b)), "custom", entry) == "right"


def _write():
    rules = {}
    for interval in INTERVALS:
        for _, key, ns, _, degree in _rows(interval):
            rules[key] = exact_entry(ns, degree)
        print(f"{interval}", file=sys.stderr, flush=True)
    write_ratchet_cache(CACHE, rules)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
