"""A rule is reported without numpy and without ``dataclasses``.

A fresh interpreter imports quadlsq, builds a report and runs the three
CLI commands on Newton-Cotes, Fejer and Clenshaw-Curtis nodes, and
neither numpy nor ``dataclasses`` (whose import pulls in ``inspect``,
``ast`` and ``dis``) may be in ``sys.modules`` after any step.  The same
children then read a public array view or generate Gauss-Legendre nodes,
which must load numpy, or import ``dataclasses``, so that the checks
cannot pass for a reason that has nothing to do with the package (a
module missing, or a module of that name never recorded).  A system and a
solution whose array views were read unpickle without numpy as well: a
pickled record holds its fields alone.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import quadlsq

#: The directory that holds the package the tests import, for the children.
PACKAGE_ROOT = str(Path(quadlsq.__file__).resolve().parent.parent)

REPORT_STEPS = """
import io, json, os, sys, tempfile

def loaded():
    return {name: name in sys.modules for name in ("numpy", "dataclasses")}

steps = [("interpreter start", loaded())]

def step(label):
    steps.append((label, loaded()))

import quadlsq
step("import quadlsq")
quadlsq.build_report(quadlsq.NodeSet((-1.0, 0.0, 1.0)))
step("build_report")

from quadlsq import cli
for fmt in ("text", "csv", "json"):
    code = cli.main(["analyze", "--family", "nc", "--n", "5", "--format", fmt], out=io.StringIO())
    step(f"analyze --format {fmt} (exit {code})")
with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["sweep", "--family", "cc", "--n-min", "2", "--n-max", "12",
                     "--out", os.path.join(tmp, "cc.csv")], out=io.StringIO())
step(f"sweep (exit {code})")
code = cli.main(["integrate", "--family", "fejer", "--n", "4", "--integrand", "expx"],
                out=io.StringIO())
step(f"integrate (exit {code})")

CONTROL
step("control")
print(json.dumps(steps))
"""

#: Each control step and the module it must load.
CONTROLS = {
    "omega": ("numpy", "quadlsq.solve_rule(quadlsq.build_system("
                       "quadlsq.NodeSet((-1.0, 0.0, 1.0)))).omega"),
    "gauss_legendre": ("numpy", "quadlsq.generate(quadlsq.FamilySpec('gl', 5))"),
    "dataclasses": ("dataclasses", "import dataclasses"),
}


def _steps(code, data=None):
    """The JSON of the last line a child running ``code`` prints; ``data``,
    if given, is its standard input."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    done = subprocess.run([sys.executable, "-c", code], env=env, input=data,
                          capture_output=True, timeout=120, check=True)
    return json.loads(done.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_report_path_never_loads_numpy(control):
    module, code = CONTROLS[control]
    steps = _steps(REPORT_STEPS.replace("CONTROL", code))
    *report_path, (label, loaded) = steps
    assert label == "control"
    assert loaded[module], f"the control ({control}) should load {module}"
    assert [s for s in report_path if any(s[1].values())] == []
    assert all(s[0].endswith("(exit 0)") for s in report_path[3:])


UNPICKLE_STEPS = """
import json, pickle, sys

def loaded():
    return {name: name in sys.modules for name in ("numpy", "dataclasses")}

fs, sol = pickle.loads(sys.stdin.buffer.read())
steps = [("pickle.loads", loaded()), ("types", [type(fs).__name__, type(sol).__name__])]
fs.A
steps.append(("control", loaded()))
print(json.dumps(steps))
"""


def test_unpickling_a_record_never_loads_numpy():
    fs = quadlsq.build_system(quadlsq.NodeSet((-1.0, 0.0, 1.0)))
    sol = quadlsq.solve_rule(fs)
    fs.A, fs.c, fs.F, fs.c_tilde, sol.omega, sol.tau, sol.z_star
    steps = _steps(UNPICKLE_STEPS, pickle.dumps((fs, sol)))
    (label, loaded), types, control = steps
    assert label == "pickle.loads" and loaded == {"numpy": False, "dataclasses": False}
    assert types == ["types", ["FundamentalSystem", "RuleSolution"]]
    assert control[1]["numpy"], "reading fs.A should load numpy"
