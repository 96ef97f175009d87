"""Every exported name resolves, in the package and in each submodule, and
importing the package and its CLI loads no third-party module but numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys

import numpy

import resolab


def test_every_all_entry_resolves():
    modules = [resolab] + [importlib.import_module(f"resolab.{info.name}")
                           for info in pkgutil.iter_modules(resolab.__path__)
                           if not info.name.startswith("_")]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


_LOADED_TOP_LEVEL = """
import sys
import resolab, resolab.cli
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - {"__main__"})))
"""


def test_runtime_imports_only_stdlib_and_numpy():
    # A fresh interpreter without site start-up (-S), so neither modules other
    # tests imported nor what site's .pth hooks load count; numpy is found
    # through an explicit path entry instead of site-packages.
    paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (resolab, numpy)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    loaded = subprocess.run([sys.executable, "-S", "-c", _LOADED_TOP_LEVEL], env=env,
                            capture_output=True, text=True, check=True).stdout.split()
    assert "resolab" in loaded and "numpy" in loaded
    foreign = [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "resolab")]
    assert foreign == []
