"""The package's public surface: ``import finslergbc`` succeeds and every
name in a module's ``__all__`` resolves, and the package's own names load
their module on first access."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import finslergbc

MODULES = sorted(m.name for m in pkgutil.iter_modules(finslergbc.__path__))


def test_package_imports():
    assert importlib.import_module("finslergbc").__version__


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"finslergbc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_names_resolve_lazily():
    """Each public name of the package is its module's object, dir lists
    it, and U_t comes from the identity module."""
    from finslergbc import chern_forms, identities, metric

    assert finslergbc.mathai_quillen_Ut is identities.mathai_quillen_Ut
    assert finslergbc.fiber_volume is metric.fiber_volume
    assert finslergbc.TransgressionForms is chern_forms.TransgressionForms
    assert {"mathai_quillen_Ut", "fiber_volume", "TransgressionForms"} <= set(dir(finslergbc))
    assert [n for n in finslergbc.__all__ if not hasattr(finslergbc, n)] == []


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finslergbc.no_such_name
    assert not hasattr(finslergbc, "no_such_name")


def test_import_loads_no_submodule():
    """``import finslergbc`` alone loads none of its modules, in a fresh
    interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(finslergbc.__file__)))
    code = "import sys, finslergbc; print(*(m for m in sys.modules if m.startswith('finslergbc.')))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_numpy_floor_covers_the_names_the_source_uses():
    """``quadrature.complex_step_partials`` filters
    ``np.exceptions.ComplexWarning``, and ``numpy.exceptions`` first shipped
    in NumPy 1.25, so the floor pyproject.toml declares is at least 1.25."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        floor = re.search(r'"numpy>=(\d+)\.(\d+)', fh.read())
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (1, 25)
