"""Package exports resolved on first access.

A package names the module each of its exports lives in, and
:func:`lazy_exports` turns that into the package's module
``__getattr__`` (PEP 562): the defining module is imported the first
time a name is read, and the value is then stored on the package, so
later reads are plain attribute lookups.  Importing a package therefore
costs only its ``__init__``.  ``nws-repro serve`` reaches
``repro.nws.server`` without the simulator or numpy, and the report
reaches ``repro.core.mixture`` without the forecast service.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``__getattr__`` of ``package``, whose ``exports`` map each
    defining module to the names it exports."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
