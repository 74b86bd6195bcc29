"""In-memory span recorder for the benchmark's traced run.

The benchmark measures each layer of the simulator from the outside: it
wraps the public functions a layer exposes (per instance for scheduler
and workload hooks, per class for the allocator, the journal and the
result summaries) so that every call records a span.  A span is
``(name, start, end, parent)``; spans nest on one thread, so a span's
self time is its duration minus the durations of its direct children.

Spans stay in memory (four flat ``array`` columns, about 28 bytes per
span) until :meth:`Tracer.write` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Parent index of a root span.
ROOT = -1


class Tracer:
    """Records nested spans with a parent stack.

    ``names`` interns span names; ``name``, ``start``, ``end`` and
    ``parent`` are parallel columns indexed by span id (times from
    ``clock``, integer nanoseconds).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span as a child of the innermost open span."""
        sid = len(self.name)
        stack = self._stack
        self.name.append(self._name_id(name))
        self.parent.append(stack[-1] if stack else ROOT)
        self.end.append(0)
        stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(
                f"span {sid} closed while span {popped} was innermost"
            )

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, stack = self.parent, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else ROOT)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------

    def self_times_ns(self) -> List[int]:
        """Per span: its duration minus its direct children's."""
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent != ROOT:
                self_ns[parent] -= self.end[sid] - self.start[sid]
        return self_ns

    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """``name -> (calls, inclusive ns, self ns)`` over all spans."""
        self_ns = self.self_times_ns()
        acc: Dict[str, List[int]] = {}
        for sid, nid in enumerate(self.name):
            row = acc.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += self.end[sid] - self.start[sid]
            row[2] += self_ns[sid]
        return {name: tuple(row) for name, row in acc.items()}

    def write(self, path) -> None:
        """Dump every span as JSON columns (times in ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, fh)


def wrap_instance(tracer: Tracer, obj, methods, prefix: str) -> None:
    """Shadow ``obj``'s bound ``methods`` with traced instance attributes
    (methods the object lacks are skipped)."""
    for method in methods:
        fn = getattr(obj, method, None)
        if fn is not None:
            setattr(obj, method,
                    tracer.wrap(fn, f"{prefix}.{method}"))


@contextmanager
def wrap_class(tracer: Tracer, cls, methods, prefix: str) -> Iterator:
    """Trace ``cls.methods`` for every instance while the block runs."""
    saved = {m: cls.__dict__[m] for m in methods}
    try:
        for method, fn in saved.items():
            setattr(cls, method, tracer.wrap(fn, f"{prefix}.{method}"))
        yield
    finally:
        for method, fn in saved.items():
            setattr(cls, method, fn)
