"""The package's public surface: ``import finslergbc`` succeeds and every
name in a module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import finslergbc

MODULES = sorted(m.name for m in pkgutil.iter_modules(finslergbc.__path__))


def test_package_imports():
    assert importlib.import_module("finslergbc").__version__


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"finslergbc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
