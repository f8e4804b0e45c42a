"""The package namespace: what ``from rankone import *`` exports."""

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
