"""In-memory spans around the benchmark's calls into gnum layers.

A span is (name, start, end, parent, op, error).  Spans are kept in a
list while the workload runs and summarised (or written out) at the end;
nothing is printed or flushed on the hot path.  `Tracer(enabled=False)`
makes `call` a plain call, so the untraced run does the same work
without the bookkeeping.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent index, op, error]
        self.counters = defaultdict(list)
        self._stack = []
        self._op = None

    def begin_op(self, op_id: str) -> None:
        self._op = op_id

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, _now(), 0.0, parent, self._op, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = _now()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name].append(value)

    def layer_totals(self):
        """name -> [calls, errors, self seconds].  Self time is a span's
        duration minus the part of it covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _, err) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0.0])
            row[0] += 1
            row[1] += err is not None
            row[2] += (t1 - t0) - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, err in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "error": err}) + "\n")
