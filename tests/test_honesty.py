"""Honesty ratchet: the rows of ``quadlsq sweep``, graded exactly.

For the four families at n = 2..64 on five intervals, each row is built as
``quadlsq sweep`` builds it, ``generate`` and then ``build_report``, and
graded as the benchmark grades (``perfbench/workloads.py``):

* right: the theoretical degree, and mu_Q and N_omega within rel 1e-8 of
  the exact values on the same binary nodes;
* typed: ``build_report`` raised a ``NumericalFailure``;
* wrong: any other row that came back.  A row whose exact mu_Q is outside
  the normal double range (it overflows, or rounds to 0 or to a subnormal)
  is wrong whatever it reports.

Some rows are silently wrong today.  ``FROZEN`` lists, per interval and
family, the wrong rows W and the typed rows T; a row in neither is right.
The wrong rows must stay within W, and the wrong and typed rows together
within W and T, so a new wrong row, or a right row that turns typed or
wrong, fails.  A change that makes a row right takes it off the lists,
which may only shrink.

The exact references (degree, mu_Q, N_omega and a hash of the nodes; no
weights) are cached in ``honesty_reference.json`` next to this file, built
with the benchmark's ``exact_reference`` and ``nodes_key``.  An entry whose
hash does not match the generated nodes (Fejer and Clenshaw-Curtis nodes
come from libm's ``cos``) is recomputed from the exact oracle, and the test
warns how many were.  Rewrite the cache (a few minutes)::

    PYTHONPATH=src python tests/test_honesty.py --write
"""

import sys
import warnings
from pathlib import Path

import pytest

import quadlsq as q

from helpers import (
    assert_within_frozen, exact_entry, graded_rows, perfbench_reference, read_ratchet_cache,
    runs, write_ratchet_cache,
)

CACHE = Path(__file__).resolve().with_name("honesty_reference.json")

INTERVALS = ((-1.0, 1.0), (2.0, 4.0), (0.0, 100.0), (0.0, 1e-5), (-1e4, 1e4))
FAMILIES = ("newton_cotes", "fejer1", "clenshaw_curtis", "gauss_legendre")
N_RANGE = range(2, 65)

#: (a, b) -> family -> (W, T): the n of the silently wrong and of the typed
#: rows, as comma-separated n or lo-hi runs.  The counts are right / wrong /
#: typed of the 252 rows when the lists were frozen.
FROZEN = {
    # 130 / 24 / 98
    (-1.0, 1.0): {
        "newton_cotes": ("", "57-64"),
        "fejer1": ("31-43", "44-64"),
        "clenshaw_curtis": ("29-39", "40-64"),
        "gauss_legendre": ("", "21-64"),
    },
    # 130 / 24 / 98
    (2.0, 4.0): {
        "newton_cotes": ("", "57-64"),
        "fejer1": ("31-43", "44-64"),
        "clenshaw_curtis": ("29-39", "40-64"),
        "gauss_legendre": ("", "21-64"),
    },
    # 83 / 168 / 1
    (0.0, 100.0): {
        "newton_cotes": ("7,13,15,17,19,23,25,27,29,31,33,35,37,39,41,43,45,47,49,51,"
                         "53,55,57,59,61,63", "21"),
        "fejer1": ("5,7,9,11,13,15,17,19,21,23,25,27,29,31,33,35,37,39,41,43,45,47-64", ""),
        "clenshaw_curtis": ("7,9,11,13,15,17,19,21,23,25,27,29,31,33,35,37,39,41,43-64", ""),
        "gauss_legendre": ("2-64", ""),
    },
    # 0 / 0 / 252
    (0.0, 1e-5): {
        "newton_cotes": ("", "2-64"),
        "fejer1": ("", "2-64"),
        "clenshaw_curtis": ("", "2-64"),
        "gauss_legendre": ("", "2-64"),
    },
    # 60 / 76 / 116
    (-1e4, 1e4): {
        "newton_cotes": ("7,9,11,13,15,17,21,23,25,27,29,31,33,35,37", "19,38-64"),
        "fejer1": ("7,11,13,17,19,21,23,25,27,29,31,33,35,37", "9,15,38-64"),
        "clenshaw_curtis": ("11,13,15,17,21,23,25,27,29,31,33,35,37", "7,9,19,38-64"),
        "gauss_legendre": ("2-6,8-10,12-37", "7,11,38-64"),
    },
}


def _key(interval, family, n):
    a, b = interval
    return f"{a!r},{b!r}/{family}/{n}"


def _nodeset(interval, family, n):
    """The node set of a sweep row: ``generate`` on the interval."""
    return q.generate(q.FamilySpec(q.Family(family), n), q.Interval(*interval))


def _rows(interval):
    """The rows on the interval, for :func:`helpers.graded_rows`."""
    degree = perfbench_reference().theoretical_degree
    return [((family, n), _key(interval, family, n), _nodeset(interval, family, n), family,
             degree(family, n)) for family in FAMILIES for n in N_RANGE]


@pytest.mark.parametrize("interval", INTERVALS, ids=lambda iv: f"({iv[0]:g},{iv[1]:g})")
def test_wrong_rows_do_not_grow(interval):
    outcomes, recomputed = graded_rows(_rows(interval), read_ratchet_cache(CACHE))
    if recomputed:
        warnings.warn(f"{recomputed} of {len(outcomes)} exact references on {interval} "
                      "recomputed: the generated nodes differ from the cache's")
    frozen = FROZEN[interval]
    wrong_ok = {(f, n) for f in FAMILIES for n in runs(frozen[f][0])}
    failed_ok = wrong_ok | {(f, n) for f in FAMILIES for n in runs(frozen[f][1])}
    assert_within_frozen(outcomes, wrong_ok, failed_ok)


def _write():
    rules = {}
    for interval in INTERVALS:
        for row, key, ns, family, degree in _rows(interval):
            rules[key] = exact_entry(ns, degree)
        print(f"{interval}", file=sys.stderr, flush=True)
    write_ratchet_cache(CACHE, rules)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
