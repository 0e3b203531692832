"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names once, in a table from
defining module to names, and binds the module-level ``__getattr__`` and
``__dir__`` that :func:`lazy_exports` returns. A name is imported from its
module on first access and then cached in the package namespace, so
importing a package costs only the modules its callers actually use.
``from package import name`` and ``from package import *`` go through the
same ``__getattr__``.

The one exception is a name its module shares (``repro.physical
.peak_current``): it is bound when the package is imported, so that
module loads with the package, every time. Such a module keeps its own
imports cheap; ``peak_current`` imports numpy inside the functions that
use it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, table: dict[str, tuple[str, ...]],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``table``
    (defining module -> the names it exports)."""
    module_of = {name: module for module, names in table.items()
                 for name in names}
    namespace = vars(sys.modules[package])
    for name, module in module_of.items():
        if module == f"{package}.{name}":
            # Named like its own module: importing that module sets the
            # package attribute to the module, after which __getattr__
            # is never asked, so bind the name now.
            namespace[name] = getattr(import_module(module), name)

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
