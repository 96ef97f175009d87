"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import resolab


def test_every_all_entry_resolves():
    modules = [resolab] + [importlib.import_module(f"resolab.{info.name}")
                           for info in pkgutil.iter_modules(resolab.__path__)
                           if not info.name.startswith("_")]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
