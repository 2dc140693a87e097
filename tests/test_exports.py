"""Each module's __all__ is its one export list, and the package re-exports exactly those."""

import importlib
import inspect
import types

import pytest

import purestat

MODULES = ("linalg", "hamiltonians", "states", "ensembles", "dynamics", "bounds")


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
