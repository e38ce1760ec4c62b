"""Small compatibility shims shared across the library.

Currently: pickle support for frozen, slotted dataclasses on Python 3.10.
The hot record classes (trace events, queries, updates) are declared with
``@dataclass(frozen=True, slots=True)`` to cut per-instance memory and
attribute-lookup cost on the simulation hot path.  Python 3.11+
generates ``__getstate__``/``__setstate__`` for such classes automatically,
but 3.10 does not: its default reduction tries ``setattr`` on a frozen
instance and fails.  Records cross process boundaries whenever a sweep runs
with ``jobs > 1``, so the mixin below provides the explicit state protocol.
"""

from __future__ import annotations

from typing import Tuple


class SlottedFrozenPickle:
    """Explicit pickle state for ``@dataclass(frozen=True, slots=True)``.

    Must precede the dataclass decorator in the MRO (i.e. be a base class of
    the record).  Declares empty ``__slots__`` so subclasses keep their
    ``__dict__``-free layout.
    """

    __slots__ = ()

    def __getstate__(self) -> Tuple[object, ...]:
        return tuple(
            getattr(self, name) for name in self.__dataclass_fields__  # type: ignore[attr-defined]
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        for name, value in zip(self.__dataclass_fields__, state, strict=True):  # type: ignore[attr-defined]
            object.__setattr__(self, name, value)
