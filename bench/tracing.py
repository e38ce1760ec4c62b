"""Span tracing installed from the benchmark's side of each layer boundary.

The program under test carries no spans of its own yet, so the benchmark
wraps the public entry points of each layer (class-level and module-level
attributes), records one span per call -- name, start, end, parent -- in
flat in-memory columns, and removes every wrapper again afterwards.  Classes
keep their identity while wrapped, so type-based dispatch in the program
(the batched-executor eligibility check) sees exactly what it sees untraced.

A layer's *self time* is its span minus the part its child spans cover.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Tuple

_MISSING = object()

#: Name of the span every pass opens around itself.
ROOT = "pass"


class Tracer:
    """Records spans for one pass at a time; owns the installed wrappers."""

    def __init__(self, install: Callable[["Tracer"], None]) -> None:
        #: Called at the start of every recording to ``wrap`` the layers.
        self._install = install
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        #: Indices of the currently open spans, innermost last.
        self._open: List[int] = [-1]
        #: (owner, attribute, original value) of every installed wrapper.
        self._installed: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Trace the enclosed block: fresh spans, wrappers on, one root span."""
        for column in (self._span_name, self._span_parent, self._span_start, self._span_end):
            del column[:]
        self._open[:] = [-1]
        self._install(self)
        try:
            with self.span(ROOT):
                yield
        finally:
            self._uninstall()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        known = self._name_ids.get(name)
        if known is None:
            known = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return known

    def traced(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` wrapped so that every call records one span ``name``."""
        name_id = self._name_id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, open_ = self._span_start, self._span_end, self._open
        clock = perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        return wrapper

    def _traced_generator(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap a generator function: one span per item produced.

        The consumer runs between items, so a single span around the whole
        generator would bill the consumer's work to the producer.
        """
        produce = self.traced(next, name)

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(func(*args, **kwargs))
            while True:
                try:
                    item = produce(iterator)
                except StopIteration:
                    return
                yield item

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (bench-side boundaries)."""
        index = len(self._span_start)
        self._span_name.append(self._name_id(name))
        self._span_parent.append(self._open[-1])
        self._span_end.append(0.0)
        self._open.append(index)
        self._span_start.append(perf_counter())
        try:
            yield
        finally:
            self._span_end[index] = perf_counter()
            self._open.pop()

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, generator: bool = False) -> None:
        """Trace ``owner.attr`` (a class or module attribute) as ``name``."""
        original = vars(owner).get(attr, _MISSING)
        make = self._traced_generator if generator else self.traced
        setattr(owner, attr, make(getattr(owner, attr), name))
        self._installed.append((owner, attr, original))

    def _uninstall(self) -> None:
        """Remove every wrapper, restoring the original attributes."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in call order."""
        wanted = self._name_ids.get(name)
        return [
            self._span_end[i] - self._span_start[i]
            for i, name_id in enumerate(self._span_name)
            if name_id == wanted
        ]

    def summarise(self) -> Dict[str, Any]:
        """Per-name totals, self times and call counts of the recorded spans.

        Returns ``layers`` (``{name: {"calls", "total_s", "self_s"}}``),
        ``root_s`` (duration of the root span), ``self_sum_s`` (sum of every
        self time -- equal to ``root_s`` when all spans nest properly, which
        the smoke test asserts) and ``calls_under`` (``{name of a direct
        child of the root: {name: calls beneath it}}``).
        """
        count = len(self._span_start)
        duration = [self._span_end[i] - self._span_start[i] for i in range(count)]
        child_total = [0.0] * count
        # A span's index is always greater than its parent's, so one forward
        # walk settles both the child totals and which direct child of the
        # root each span sits under.
        branch = [-1] * count
        for i in range(count):
            parent = self._span_parent[i]
            if parent < 0:
                continue
            child_total[parent] += duration[i]
            branch[i] = i if self._span_parent[parent] < 0 else branch[parent]
        layers: Dict[str, Dict[str, float]] = {}
        calls_under: Dict[str, Dict[str, int]] = {}
        root_s = 0.0
        self_sum = 0.0
        for i in range(count):
            name = self._names[self._span_name[i]]
            self_s = duration[i] - child_total[i]
            self_sum += self_s
            if self._span_parent[i] < 0:
                root_s += duration[i]
            row = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += self_s
            if branch[i] not in (-1, i):
                under = calls_under.setdefault(self._names[self._span_name[branch[i]]], {})
                under[name] = under.get(name, 0) + 1
        return {
            "layers": layers,
            "root_s": root_s,
            "self_sum_s": self_sum,
            "calls_under": calls_under,
        }


class NullTracer:
    """The untraced stand-in: nothing is wrapped, recorded or summarised."""

    def recording(self) -> ContextManager[None]:
        return nullcontext()

    def span(self, name: str) -> ContextManager[None]:
        return nullcontext()

    def durations(self, name: str) -> List[float]:
        return []

    def summarise(self) -> None:
        return None
