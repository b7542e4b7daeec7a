"""Every public name is reachable from one place: the module defining it."""

import importlib
import inspect
import pkgutil

import pytest

import radclust

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(radclust.__path__) if info.name != "__main__"
)


def test_modules_are_found():
    assert {"cli", "clustering", "geometry", "io", "matpower"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_in_their_module(name):
    module = importlib.import_module(f"radclust.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for entry in module.__all__:
        value = getattr(module, entry)
        if inspect.isfunction(value) or inspect.isclass(value):
            # Defined here, not re-exported from another module.
            assert value.__module__ == module.__name__, entry


def test_package_namespace_holds_no_function_or_class():
    for name in MODULES:
        importlib.import_module(f"radclust.{name}")
    found = [
        name
        for name, value in vars(radclust).items()
        if inspect.isfunction(value) or inspect.isclass(value)
    ]
    assert found == []
