"""Every public name a ``repro`` module exports must exist.

A stale ``__all__`` entry breaks ``from module import *`` with an
``AttributeError`` for every caller, so each module's ``__all__`` is
resolved name by name (``repro.__main__`` runs the CLI on import and
is skipped).
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
