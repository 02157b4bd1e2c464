"""In-memory span recorder for the traced benchmark run.

A span records its name, start and end (``perf_counter_ns``), the span
that encloses it and the op it belongs to.  Spans stay in memory until
the run ends and are written out in one go.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1

    def span(self, name: str, op: int | None = None) -> "_Span":
        return _Span(self, name, op)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def summarize(self, first: int, scale: dict[int, float]):
        """Self time, inclusive time and call count per span name, over
        the spans from ``first`` on.  Self time is the span's duration
        minus the part its child spans cover.  Times are multiplied by
        the ``scale`` of the span's op."""
        spans = self.spans[first:]
        child_ns = defaultdict(int)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self_ns: dict[str, float] = defaultdict(float)
        total_ns: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans, start=first):
            dur = s[END] - s[START]
            k = scale[s[OP]]
            self_ns[s[NAME]] += (dur - child_ns[i]) * k
            total_ns[s[NAME]] += dur * k
            calls[s[NAME]] += 1
        return self_ns, total_ns, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "op": s[OP]}))
                fh.write("\n")


class _Span:
    __slots__ = ("tracer", "record", "index", "outer_op")

    def __init__(self, tracer: Tracer, name: str, op: int | None):
        self.tracer = tracer
        self.outer_op = tracer._op
        if op is not None:
            tracer._op = op
        parent = tracer._open[-1] if tracer._open else -1
        self.record = [name, 0, 0, parent, tracer._op]

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(self.record)
        tr._open.append(self.index)
        self.record[START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[END] = time.perf_counter_ns()
        self.tracer._open.pop()
        self.tracer._op = self.outer_op
        return False
