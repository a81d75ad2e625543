"""A rule is reported without numpy, ``dataclasses``, ``fractions``,
``decimal``, the node generators or ``Polynomial``.

A fresh interpreter imports quadlsq and builds a report, and none of these
six modules may be in ``sys.modules`` after either step.  The CLI then
runs ``analyze`` and ``sweep`` on Newton-Cotes, Clenshaw-Curtis and Fejer
nodes and ``integrate`` with a built-in integrand, after which
``quadlsq.nodes`` alone of the six may be loaded.  A last control step
must load one of them, so that the checks cannot pass for a reason that
has nothing to do with the package (a module missing, or a module of that
name never recorded); the node generators' control runs before the CLI
steps, which load them.  A system and a solution whose array views were
read unpickle without any of the six as well: a pickled record holds its
fields alone.
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

#: The modules a report must not load.
WATCHED = ("numpy", "dataclasses", "fractions", "decimal", "quadlsq.nodes", "quadlsq.poly")

LOADED = f"""
import json, sys

def loaded():
    return {{name: name in sys.modules for name in {WATCHED!r}}}
"""

REPORT_STEPS = LOADED + """
import io, os, tempfile

steps = [("interpreter start", loaded())]

def step(label):
    steps.append((label, loaded()))

import quadlsq
step("import quadlsq")
quadlsq.build_report(quadlsq.NodeSet((-1.0, 0.0, 1.0)))
step("build_report")
CLI_STEPS
CONTROL
step("control")
print(json.dumps(steps))
"""

CLI_STEPS = """
from quadlsq import cli
for family, fmt in (("nc", "text"), ("cc", "csv"), ("fejer", "json")):
    code = cli.main(["analyze", "--family", family, "--n", "5", "--format", fmt],
                    out=io.StringIO())
    step(f"analyze {family} --format {fmt} (exit {code})")
with tempfile.TemporaryDirectory() as tmp:
    for family in ("nc", "cc", "fejer"):
        code = cli.main(["sweep", "--family", family, "--n-min", "2", "--n-max", "12",
                         "--out", os.path.join(tmp, family + ".csv")], out=io.StringIO())
        step(f"sweep {family} (exit {code})")
code = cli.main(["integrate", "--family", "fejer", "--n", "4", "--integrand", "expx"],
                out=io.StringIO())
step(f"integrate (exit {code})")
"""

READ_NODES_FILE = """
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "simpson.txt")
    with open(path, "w") as fh:
        fh.write("-1\\n0\\n1\\n")
    quadlsq.read_nodes_file(path)
"""

OVERFLOW_MESSAGE = """
try:
    quadlsq.NodeSet((10 ** 400,))
except ValueError:
    pass
"""

#: Each control step, the module it must load, and whether it runs after
#: the CLI steps (the node generators' control cannot: they load them).
CONTROLS = {
    "omega": ("numpy", "quadlsq.solve_rule(quadlsq.build_system("
                       "quadlsq.NodeSet((-1.0, 0.0, 1.0)))).omega", True),
    "gauss_legendre": ("numpy", "quadlsq.generate(quadlsq.FamilySpec('gl', 5))", True),
    "dataclasses": ("dataclasses", "import dataclasses", True),
    "rational_pipeline": ("fractions", "quadlsq.rational_pipeline((-1, 0, 1))", True),
    "read_nodes_file": ("fractions", READ_NODES_FILE, True),
    "overflow_message": ("decimal", OVERFLOW_MESSAGE, True),
    "polynomial": ("quadlsq.poly", "quadlsq.Polynomial", True),
    "generate": ("quadlsq.nodes", "quadlsq.generate(quadlsq.FamilySpec('nc', 3))", False),
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
    module, code, after_cli = CONTROLS[control]
    steps = _steps(REPORT_STEPS.replace("CLI_STEPS", CLI_STEPS if after_cli else "")
                   .replace("CONTROL", code))
    *path, (label, loaded) = steps
    assert label == "control"
    assert loaded[module], f"the control ({control}) should load {module}"
    report_path, cli_steps = path[:3], path[3:]
    assert [s for s in report_path if any(s[1].values())] == []
    assert len(cli_steps) == (7 if after_cli else 0)
    assert all(s[0].endswith("(exit 0)") for s in cli_steps)
    assert [s for s in cli_steps
            if [name for name, on in s[1].items() if on] != ["quadlsq.nodes"]] == []


UNPICKLE_STEPS = LOADED + """
import pickle

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
    assert label == "pickle.loads" and not any(loaded.values())
    assert types == ["types", ["FundamentalSystem", "RuleSolution"]]
    assert control[1]["numpy"], "reading fs.A should load numpy"


MONOMIAL_STEPS = LOADED + """
import quadlsq

ns = quadlsq.NodeSet((0.0, 1.0, 2.0), quadlsq.Interval(0.0, 2.0))
steps = [("import quadlsq", loaded())]
degree = quadlsq.degree_by_monomials(ns, [1 / 3, 4 / 3, 1 / 3])
steps.append(("degree_by_monomials", loaded(), degree))
quadlsq.lsq_normal_equations(quadlsq.build_system(ns))
steps.append(("control", loaded()))
print(json.dumps(steps))
"""


def test_the_monomial_check_never_loads_numpy():
    # it judges Simpson's rule on (-1, 1) on Python floats; the normal
    # equations, the control, load numpy
    (_, imported), (_, checked, degree), (_, control) = _steps(MONOMIAL_STEPS)
    assert not imported["numpy"] and not checked["numpy"]
    assert degree == 3
    assert control["numpy"], "the normal equations should load numpy"
