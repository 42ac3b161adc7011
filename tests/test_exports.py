from __future__ import annotations

import importlib
import pkgutil

import statops


def test_every_all_entry_resolves():
    # A stale __all__ entry (a name deleted from its module) makes
    # ``import *`` fail, so star-import every module and check each entry.
    names = ["statops"] + [f"statops.{m.name}" for m in pkgutil.iter_modules(statops.__path__)
                           if m.name != "__main__"]  # importing __main__ sets process state
    for name in names:
        module = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for entry in getattr(module, "__all__", ()):
            assert namespace.get(entry) is getattr(module, entry), f"{name}.{entry}"
