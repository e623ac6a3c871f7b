"""Spans and counts around the program's module-level functions.

``Tracer`` replaces each traced function with a timing wrapper on every
binding a caller can look it up through: ``special.area`` and the package's
``specialperiods.area`` get the same wrapper as ``pairings.area``.  The
wrappers exist only inside ``with tracer:`` and the original objects are put
back on exit.  Nothing in the program's source is changed.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

# (module, function) pairs, named as the program's modules name them.
TRACED = (
    ("cli", "run"),
    ("matrixio", "load_period_matrix"),
    ("special", "search_solutions"),
    ("special", "cover_degree"),
    ("pairings", "area"),
    ("pairings", "herm_product"),
    ("differentials", "primitive_coeffs"),
    ("report", "run_identity_suite"),
    ("report", "positivity_sweep"),
)

PACKAGE = "specialperiods"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Invocation:
    """Spans and counts of one traced CLI invocation."""

    spans: list = field(default_factory=list)
    box_points: int = 0
    box_bytes: int = 0
    records: int = 0
    search_peak_bytes: int = 0

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


class Tracer:
    """Installs timing wrappers for the duration of a ``with`` block.

    With ``measure_memory`` set, ``special.search_solutions`` also runs under
    tracemalloc and records its peak traced allocation.
    """

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.current = Invocation()
        self._stack = threading.local()
        self._restore = []

    def begin(self) -> None:
        self.current = Invocation()

    def _wrap(self, name: str, fn):
        is_search = name == "special.search_solutions"

        def traced(*args, **kwargs):
            stack = getattr(self._stack, "spans", None)
            if stack is None:
                stack = self._stack.spans = []
            spans = self.current.spans
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            memory = is_search and self.measure_memory
            if memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if memory:
                    self.current.search_peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.duration
            if is_search:
                self._count_search(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_search(self, args, kwargs, records) -> None:
        omega = args[0]
        bound = kwargs["bound"] if "bound" in kwargs else args[2]
        points = (2 * bound + 1) ** (2 * omega.genus) - 1
        self.current.box_points += points
        # Computed, not measured: one int64 per coordinate of each point.
        self.current.box_bytes += points * 2 * omega.genus * 8
        self.current.records += len(records)

    def __enter__(self):
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, attr in TRACED:
            original = getattr(sys.modules["%s.%s" % (PACKAGE, module_name)], attr)
            wrapper = self._wrap("%s.%s" % (module_name, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            mod, key, original = self._restore.pop()
            setattr(mod, key, original)
        return False
