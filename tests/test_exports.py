"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import qfrac

MODULES = ["qfrac"] + [f"qfrac.{m.name}" for m in pkgutil.iter_modules(qfrac.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
