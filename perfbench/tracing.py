"""In-memory spans around the benchmark's calls into pacslab, and self times.

A span is ``[name, start, end, parent, point]``: ``parent`` indexes the
enclosing span in the same list (-1 at top level) and ``point`` identifies
the input point the call served.  Times come from ``time.perf_counter``,
which on Linux reads CLOCK_MONOTONIC, so spans recorded in a child process
line up with the parent's.
"""

import time
from collections import defaultdict


class NullTracer:
    """Untraced timing passes: calls go straight through."""

    spans = ()

    def call(self, name, point, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, point, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, point]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans, parent, point):
        """Append spans recorded by a child process below span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, point])


def span_totals(spans):
    """Map span name to ``[calls, busy_s, self_s]``.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one pass add up to the traced time.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = totals[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_s[idx]
    return dict(totals)
