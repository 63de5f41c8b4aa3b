"""Every exported name exists, so no stale export survives a deletion, and
every exported name is used, so no dead helper hides behind an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qappell

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(qappell.__path__) if info.name != "__main__"
)
ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    """Names read, looked up as attributes or imported anywhere in src/ and perfbench/."""
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"qappell.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exist():
    assert [n for n in qappell.__all__ if not hasattr(qappell, n)] == []
    assert [n for n in qappell.__all__ if n not in dir(qappell)] == []


def test_every_module_export_is_used():
    used = _used_names()
    unused = {
        name: [n for n in importlib.import_module(f"qappell.{name}").__all__ if n not in used]
        for name in MODULES
    }
    assert {name: names for name, names in unused.items() if names} == {}
