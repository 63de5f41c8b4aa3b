"""Every exported name exists, so no stale export survives a deletion."""

import importlib
import pkgutil

import pytest

import qappell

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(qappell.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"qappell.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exist():
    assert [n for n in qappell.__all__ if not hasattr(qappell, n)] == []
    assert [n for n in qappell.__all__ if n not in dir(qappell)] == []
