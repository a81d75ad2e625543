"""The benchmark tracer's by-name lookups still find the package's names.

``perfbench/tracing.py`` patches, by name, the public functions of seven
span-layer modules at every import site, three ``Polynomial`` methods and
ten ``DD`` operators.  A name moved or renamed in ``src/`` fails its
install.  The tracer is loaded from its file, as the honesty test loads
``perfbench/reference.py``; nothing under ``perfbench/`` is edited.
"""

import importlib.util
import sys
from pathlib import Path

import quadlsq as q
import quadlsq.cli  # noqa: F401  (a span layer: the tracer looks it up)
import quadlsq.poly  # noqa: F401  (loaded on first use: load it before the snapshots)
from quadlsq.ddouble import DD

_PERFBENCH_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PERFBENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer may patch, as (name, owner) pairs."""
    modules = [(k, m) for k, m in sys.modules.items()
               if k == "quadlsq" or k.startswith("quadlsq.")]
    return modules + [("Polynomial", q.Polynomial), ("DD", DD)]


def test_traced_report_has_its_spans_and_every_patch_is_undone():
    tracing = _tracing_module()
    before = {name: dict(vars(owner)) for name, owner in _namespaces()}
    ns = q.generate(q.FamilySpec(q.Family.GAUSS_LEGENDRE, 5))
    tracer = tracing.Tracer(q)
    tracer.install()
    try:
        patched = [(name, attr) for name, owner in _namespaces()
                   for attr, value in vars(owner).items()
                   if value is not before[name].get(attr, value)]
        served = q.generate
        q.build_report(ns, family="gauss_legendre")
    finally:
        tracer.remove()

    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert "analysis.build_report" in names
    assert "system.build_system" in names
    report = names.index("analysis.build_report")
    assert tracer.spans[names.index("system.build_system")][tracing.PARENT] == report
    assert {("Polynomial", attr) for attr in tracing.POLY_COUNTED} <= set(patched)
    assert {("DD", attr) for attr in tracing.DD_OPERATORS} <= set(patched)
    for name, owner in _namespaces():
        now = vars(owner)
        assert now.keys() == before[name].keys(), name
        assert all(now[attr] is value for attr, value in before[name].items()), name
    # The package's lazy names are read from their modules on every access:
    # the patch was served while installed, the original after its removal.
    assert vars(q).keys() == before["quadlsq"].keys()
    assert served.__wrapped__ is q.generate is sys.modules["quadlsq.nodes"].generate
