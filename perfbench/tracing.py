"""Spans recorded by the benchmark's own wrappers around library calls.

With tracing off, ``span`` hands back one shared no-op context manager, so
the untraced run pays a method call per wrapper and nothing else.  With
tracing on, each span keeps its name, start, end, parent span and op id in
memory; ``write`` dumps them once the run has ended.
"""

from __future__ import annotations

import json
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), None, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (total minus the
        time its direct children cover; spans nest, one thread)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["time_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
