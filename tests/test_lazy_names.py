"""The package's public names, some of which load on first use.

``quadlsq`` serves the node generators and ``Polynomial`` through its
module ``__getattr__``, which imports their module when a name is first
read.  Every name of ``__all__`` must still be its defining module's
binding, by attribute, by ``import *`` and in ``dir``, and a lazy name is
read from its module on every access: it is never bound in the package.
"""

import sys

import pytest

import quadlsq


@pytest.mark.parametrize("name", quadlsq.__all__)
def test_a_public_name_is_its_defining_modules_binding(name):
    obj = getattr(quadlsq, name)
    assert obj.__module__.startswith("quadlsq.")
    assert vars(sys.modules[obj.__module__])[name] is obj


def test_import_star_and_dir_give_every_public_name():
    namespace = {}
    exec("from quadlsq import *", namespace)
    assert all(namespace[name] is getattr(quadlsq, name) for name in quadlsq.__all__)
    assert set(quadlsq.__all__) <= set(dir(quadlsq))


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'quadlsq' has no attribute 'no_such'$"):
        quadlsq.no_such
    assert not hasattr(quadlsq, "Fraction")


def test_a_lazy_name_is_read_from_its_module_on_every_access(monkeypatch):
    nodes = sys.modules[quadlsq.generate.__module__]

    def replacement(spec, interval=None):
        return None

    monkeypatch.setattr(nodes, "generate", replacement)
    assert quadlsq.generate is replacement
    monkeypatch.undo()
    assert quadlsq.generate is nodes.generate is not replacement
    assert "generate" not in vars(quadlsq) and "Polynomial" not in vars(quadlsq)
