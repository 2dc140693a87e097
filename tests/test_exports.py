"""Each module's __all__ is its one export list, and the package re-exports exactly
those; every export has a caller."""

import ast
import importlib
import inspect
import os
import re
import types

import pytest

import purestat

MODULES = ("linalg", "hamiltonians", "states", "ensembles", "dynamics", "bounds")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# exports that only the tests call: the dense single-state references that the
# batched reduced_rates kernel is checked against
TEST_ORACLES = {"subsystem_speed", "purity_rate"}


@pytest.mark.parametrize("name", MODULES)
def test_every_public_function_and_class_is_in_all(name):
    module = importlib.import_module(f"purestat.{name}")
    public = {attr for attr, obj in vars(module).items()
              if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert public <= set(module.__all__), sorted(public - set(module.__all__))
    assert len(set(module.__all__)) == len(module.__all__)
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_the_package_reexports_exactly_the_module_lists():
    listed = {attr for name in MODULES
              for attr in importlib.import_module(f"purestat.{name}").__all__}
    exported = {attr for attr, obj in vars(purestat).items()
                if not attr.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == listed
    assert sorted(purestat.__all__) == sorted(listed)


def _referenced_names(source: str) -> set[str]:
    """Every identifier that code reads: Name nodes and attribute names.
    Strings, comments, imports and definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _caller_sources() -> list[str]:
    """The package and demo sources, and the README's Python example."""
    paths = [os.path.join(ROOT, folder, f) for folder in ("src/purestat", "demos")
             for f in sorted(os.listdir(os.path.join(ROOT, folder))) if f.endswith(".py")]
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        sources += re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    return sources


def test_every_export_is_called_outside_the_tests():
    referenced = set().union(*map(_referenced_names, _caller_sources()))
    exported = {attr for name in MODULES
                for attr in importlib.import_module(f"purestat.{name}").__all__}
    assert TEST_ORACLES <= exported
    assert sorted(exported - referenced - TEST_ORACLES) == []
