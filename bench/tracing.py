"""In-memory spans around the benchmark's calls into wmodal.

A span records its name ("<layer>.<function>"), start and end on the
`perf_counter` clock, the index of the enclosing span (or -1) and the
request id current when it opened.  Spans stay in memory and are written
out once, when the traced run ends.  Nothing inside `src/` is patched:
spans sit only around calls this benchmark makes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def direct(name, fn, *args, **kwargs):
    """The untraced form of `Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, request]
        self._stack = []
        self.request = -1

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.request]
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def self_times(self):
        """Seconds of self time per layer: each span's duration minus the
        part covered by its child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)
