import importlib
import pkgutil

import pytest

import scaopt

MODULES = ["scaopt"] + [f"scaopt.{m.name}" for m in pkgutil.iter_modules(scaopt.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    """A deletion that leaves a stale ``__all__`` entry fails here, not in a user's import."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
