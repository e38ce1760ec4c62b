"""Context objects handed to lint rules by the engine.

Split out of :mod:`repro.lint.engine` so the rule modules can import the
context types without importing the engine (which imports the rules --
the usual registry cycle).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.lint.astutil import ImportMap
from repro.lint.suppressions import SuppressionIndex


@dataclass
class ModuleContext:
    """One parsed source file, as the module rules see it.

    ``rel_path`` is relative to the project root (POSIX form) and is what
    findings carry; ``package_path`` additionally strips a leading ``src/``
    so rules scope on import-like paths (``repro/sim/engine.py``).
    """

    path: Path
    rel_path: str
    package_path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    _imports: Optional[ImportMap] = field(default=None, repr=False)

    @property
    def imports(self) -> ImportMap:
        """The module's import-alias map (built lazily, cached)."""
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports
