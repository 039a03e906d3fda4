"""Every exported name resolves, so a deletion cannot leave a stale export,
and every module imports only public names of the layers below it."""

import ast
import importlib
import inspect
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


#: Layer order, bottom up: a module may import only modules before it.
LAYERS = (
    "linalg", "calculus", "majorization", "cpmaps", "inequalities", "serialize", "harness", "cli",
)


def _relative_imports(name: str) -> set[str]:
    path = pathlib.Path(bohrcheck.__file__).with_name(f"{name}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            # "from .linalg import x" names the module; "from . import x" its names.
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == MODULES
    for i, name in enumerate(LAYERS):
        assert _relative_imports(name) <= set(LAYERS[:i]), name


def test_no_module_imports_a_private_name_of_another():
    # "from .x import _y" reaches past a layer's interface; a spec's own
    # _apply method is called on the object, which imports nothing.
    private = []
    for name in MODULES:
        path = pathlib.Path(bohrcheck.__file__).with_name(f"{name}.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_checkers_take_no_digest():
    checkers = [n for n in bohrcheck.inequalities.__all__ if n.startswith("check_")]
    assert len(checkers) == 11
    for n in checkers:
        params = inspect.signature(getattr(bohrcheck.inequalities, n)).parameters
        assert "input_digest" not in params, n
