"""The public surface: every exported name exists, and every cache is bounded.

Each module's ``__all__`` must name only attributes the module defines or
imports, and every name the package ``__init__`` imports from a module must
be listed in that module's ``__all__``, so deleting a function cannot leave
a dangling export behind.  Every ``functools.lru_cache`` in the package has
a fixed integer ``maxsize``, so no cache grows with the inputs it has seen.
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


def lru_caches():
    """``(name, maxsize)`` of every ``functools.lru_cache`` wrapper defined in
    a module of the package or in one of its classes."""
    for name in MODULES:
        module = importlib.import_module(f"dl_harmonics.{name}")
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in (module, *classes):
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)  # a staticmethod or classmethod
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    yield f"{name}.{attr}", value.cache_parameters()["maxsize"]


def test_every_lru_cache_has_a_fixed_size():
    caches = dict(lru_caches())
    required = {"dirichlet._class_values", "dirichlet._walk_row", "dirichlet._confluent_levels", "dirichlet._sequences",
                "dirichlet._move_slots", "dirichlet._certified", "dirichlet._kept_levels", "dirichlet._shape_vertices",
                "kernels._factors", "lamplighter._generators", "cli._parser"}
    assert required <= caches.keys()
    assert {name: size for name, size in caches.items() if type(size) is not int or size <= 0} == {}
