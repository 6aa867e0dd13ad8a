"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import ucdkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ucdkit.__path__))


def test_package_all_resolves():
    assert [name for name in ucdkit.__all__ if not hasattr(ucdkit, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"ucdkit.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
