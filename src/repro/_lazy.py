"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names with
``from ... import`` statements imports every one of those submodules as soon
as *any* module of the package is imported: ``import repro.serve.server``
runs ``repro/serve/__init__.py`` first.  :func:`lazy_exports` keeps the
re-exports (``from repro.serve import validate_payload`` still works, and
``__all__`` is unchanged) but resolves each name from its submodule on first
access, so a process imports only the submodules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], object]:
    """The module ``__getattr__`` for ``package``'s ``__init__``.

    ``exports`` maps each public name to the module that defines it; a name
    that maps to ``f"{package}.{name}"`` is that submodule itself.  A name
    resolved once is stored in the package namespace, so later lookups never
    reach ``__getattr__`` again.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        imported = importlib.import_module(module)
        value = imported if module == f"{package}.{name}" else getattr(imported, name)
        namespace[name] = value
        return value

    return __getattr__
