"""In-memory spans recorded by the benchmark around its calls into gainlap.

A span has a name, a start, an end, a parent span and a job id.  The
part of a name before the first dot is the layer (``distances.dmatrix``
belongs to ``distances``); root spans (``job``, ``inproc``) belong to the
benchmark itself.  A span's self time is its duration minus the time its
direct children cover; children never overlap because the benchmark is
single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, ContextManager

_NULL = contextlib.nullcontext()


def null_span(name: str) -> ContextManager:
    """The span factory used with tracing off: records nothing."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, job id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = ""

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total duration per span name, and self time and call count per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            by_name[name] += end - start
            self_by_layer[layer] += end - start - child_time[i]
            calls[layer] += 1
        return by_name, self_by_layer, calls


SpanFactory = Callable[[str], ContextManager]
