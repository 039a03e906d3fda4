"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import bohrcheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(bohrcheck.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"bohrcheck.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_are_public_names_of_their_modules():
    tree = ast.parse(pathlib.Path(bohrcheck.__file__).read_text(encoding="utf-8"))
    imported = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imported
    for node in imported:
        mod = importlib.import_module(f"bohrcheck.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert getattr(bohrcheck, alias.asname or alias.name) is getattr(mod, alias.name)
