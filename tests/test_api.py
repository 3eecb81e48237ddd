"""The public surface: every exported name exists.

Each module's ``__all__`` must name only attributes the module defines or
imports, and every name the package ``__init__`` imports from a module must
be listed in that module's ``__all__``, so deleting a function cannot leave
a dangling export behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dl_harmonics

MODULES = sorted(m.name for m in pkgutil.iter_modules(dl_harmonics.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"dl_harmonics.{name}")
    exported = getattr(module, "__all__", [])  # the CLI module exports nothing
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(dl_harmonics.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        module = importlib.import_module(f"dl_harmonics.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if n not in module.__all__] == []
        assert all(hasattr(dl_harmonics, alias.asname or alias.name) for alias in node.names)
