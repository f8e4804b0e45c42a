"""The package namespace: what ``from rankone import *`` exports."""

import inspect
from types import ModuleType

import rankone


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(rankone).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(rankone.__all__) == bound | {"__version__"}
    assert len(rankone.__all__) == len(set(rankone.__all__))


def test_exported_classes_and_functions_are_the_packages_own():
    # __all__ takes every public name the imports bind, so a helper imported
    # under a public name would be exported; this catches it
    for name in rankone.__all__:
        value = getattr(rankone, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith("rankone."), name
