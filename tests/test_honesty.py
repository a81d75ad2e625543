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

import importlib.util
import json
import sys
import warnings
from functools import cache
from pathlib import Path

import pytest

import quadlsq as q

_PERFBENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
CACHE = Path(__file__).resolve().with_name("honesty_reference.json")

INTERVALS = ((-1.0, 1.0), (2.0, 4.0), (0.0, 100.0), (0.0, 1e-5), (-1e4, 1e4))
FAMILIES = ("newton_cotes", "fejer1", "clenshaw_curtis", "gauss_legendre")
N_RANGE = range(2, 65)
RTOL = 1e-8

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


def _ns(text):
    """The set of n in "2-5,9,12-13"."""
    out = set()
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


@cache
def _reference_module():
    """The benchmark's ``reference`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", _PERFBENCH_REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(interval, family, n):
    a, b = interval
    return f"{a!r},{b!r}/{family}/{n}"


def _nodeset(interval, family, n):
    """The node set of a sweep row: ``generate`` on the interval."""
    return q.generate(q.FamilySpec(q.Family(family), n), q.Interval(*interval))


def _exact_entry(ns, family, n):
    """The cached fields of the benchmark's exact reference; mu_Q is None
    when it overflows a double."""
    ref = _reference_module()
    degree = ref.theoretical_degree(family, n)
    try:
        entry = ref.exact_reference(q, ns, degree)
    except OverflowError:
        weights = q.rational_pipeline(ns).weights
        entry = {"nodes_sha256": ref.nodes_key(ns), "degree": degree, "mu_Q": None,
                 "n_omega": float(sum(map(abs, weights)))}
    return {k: entry[k] for k in ("nodes_sha256", "degree", "mu_Q", "n_omega")}


def _within(value, exact):
    """rel err <= RTOL against a normal double; a nan value is not within."""
    if exact is None or abs(exact) < sys.float_info.min:
        return False
    return abs(value - exact) <= RTOL * abs(exact)


def _grade(ns, family, entry):
    """'right', 'wrong' or 'typed' for the sweep row of ``ns``."""
    try:
        report = q.build_report(ns, family=family)
    except q.NumericalFailure:
        return "typed"
    right = (report.degree == entry["degree"] and _within(report.mu_Q, entry["mu_Q"])
             and _within(report.N_omega, entry["n_omega"]))
    return "right" if right else "wrong"


def _outcomes(interval, cached):
    """{(family, n): outcome} on the interval, and how many cached entries
    were recomputed because their node hash differs."""
    ref = _reference_module()
    outcomes, recomputed = {}, 0
    for family in FAMILIES:
        for n in N_RANGE:
            ns = _nodeset(interval, family, n)
            entry = cached.get(_key(interval, family, n))
            if entry is None or entry["nodes_sha256"] != ref.nodes_key(ns):
                entry = _exact_entry(ns, family, n)
                recomputed += 1
            outcomes[family, n] = _grade(ns, family, entry)
    return outcomes, recomputed


@cache
def _cached():
    return json.loads(CACHE.read_text(encoding="utf-8"))["rules"]


@pytest.mark.parametrize("interval", INTERVALS, ids=lambda iv: f"({iv[0]:g},{iv[1]:g})")
def test_wrong_rows_do_not_grow(interval):
    outcomes, recomputed = _outcomes(interval, _cached())
    if recomputed:
        warnings.warn(f"{recomputed} of {len(outcomes)} exact references on {interval} "
                      "recomputed: the generated nodes differ from the cache's")
    frozen = FROZEN[interval]
    wrong_ok = {(f, n) for f in FAMILIES for n in _ns(frozen[f][0])}
    failed_ok = wrong_ok | {(f, n) for f in FAMILIES for n in _ns(frozen[f][1])}
    wrong = {row for row, o in outcomes.items() if o == "wrong"}
    failed = {row for row, o in outcomes.items() if o != "right"}
    assert not wrong - wrong_ok, f"new silently wrong rows: {sorted(wrong - wrong_ok)}"
    assert not failed - failed_ok, f"right rows that fail: {sorted(failed - failed_ok)}"


def _write():
    rules = {}
    for interval in INTERVALS:
        for family in FAMILIES:
            for n in N_RANGE:
                rules[_key(interval, family, n)] = _exact_entry(
                    _nodeset(interval, family, n), family, n)
            print(f"{interval} {family}", file=sys.stderr, flush=True)
    with open(CACHE, "w", encoding="utf-8") as fh:
        json.dump({"rules": rules}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(rules)} entries to {CACHE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
