"""A rule is reported without numpy.

A fresh interpreter imports quadlsq, builds a report and runs the three
CLI commands on Newton-Cotes, Fejer and Clenshaw-Curtis nodes, and numpy
must still be absent from ``sys.modules`` after each step.  The same
children then read a public array view or generate Gauss-Legendre nodes,
which must load numpy, so that the checks cannot pass for a reason that
has nothing to do with the package (numpy missing, or a module of that
name never recorded).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadlsq

#: The directory that holds the package the tests import, for the children.
PACKAGE_ROOT = str(Path(quadlsq.__file__).resolve().parent.parent)

REPORT_STEPS = """
import io, json, os, sys, tempfile

steps = [("interpreter start", "numpy" in sys.modules)]

def step(label):
    steps.append((label, "numpy" in sys.modules))

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

CONTROLS = {
    "omega": "quadlsq.solve_rule(quadlsq.build_system(quadlsq.NodeSet((-1.0, 0.0, 1.0)))).omega",
    "gauss_legendre": "quadlsq.generate(quadlsq.FamilySpec('gl', 5))",
}


def _steps(code):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_report_path_never_loads_numpy(control):
    steps = _steps(REPORT_STEPS.replace("CONTROL", CONTROLS[control]))
    *report_path, (label, loaded) = steps
    assert label == "control"
    assert loaded, f"the control ({control}) should load numpy"
    assert [s for s in report_path if s[1]] == []
    assert all(s[0].endswith("(exit 0)") for s in report_path[3:])
