import importlib
import pkgutil

import pytest

import cwsa_eval

MODULES = ["cwsa_eval"] + [
    f"cwsa_eval.{info.name}" for info in pkgutil.iter_modules(cwsa_eval.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    """A name left in ``__all__`` after its definition is gone breaks
    ``from cwsa_eval import *``."""
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
