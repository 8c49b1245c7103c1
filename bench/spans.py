"""In-memory spans around the benchmark's own calls into treeabel.

Every call the benchmark makes into a package layer goes through
``tracer.call(name, fn, *args)``.  The name is ``<layer>.<function>``,
where the layer is the treeabel module (``curves``, ``classify``,
``stability``, ``abel``, ``compare``, ``generator``) or ``cli`` for one CLI
subprocess.  A traced CLI subprocess reports its own spans, which are
adopted as children of its ``cli.<command>`` span.  A span's self time is
its duration minus that of its direct children; the request span's self
time is the benchmark's own glue between calls.

``NullTracer`` has the same interface and records nothing, so the traced
and untraced runs execute the same request code.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

REQUEST = "request"


class NullTracer:
    records = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def begin_request(self, rid: int) -> None:
        pass

    def end_request(self, start_ns: int, end_ns: int) -> None:
        pass


class Tracer:
    """Records (name, start_ns, end_ns, request id, parent span index)."""

    records = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int | None, int | None]] = []
        self.counts: Counter[str] = Counter()
        self._rid: int | None = None
        self._parent: int | None = None

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter_ns(), self._rid, self._parent))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def begin_request(self, rid: int) -> None:
        # reserve the request span's slot so children can name it as parent
        self._rid = rid
        self._parent = len(self.spans)
        self.spans.append((REQUEST, 0, 0, rid, None))

    def end_request(self, start_ns: int, end_ns: int) -> None:
        self.spans[self._parent] = (REQUEST, start_ns, end_ns, self._rid, None)
        self._rid = self._parent = None

    def adopt(self, child_spans: list) -> None:
        """Attach [name, start, end, parent] spans under the latest span."""
        parent, offset = len(self.spans) - 1, len(self.spans)
        for name, start, end, index in child_spans:
            self.spans.append((name, start, end, self._rid,
                               parent if index is None else offset + index))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, rid, parent) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "request": rid, "parent": parent}
                handle.write(json.dumps(record) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per-function busy time (inclusive), per-layer self time, glue and calls."""
    children_ns: Counter[int] = Counter()
    for _, start, end, _, parent in tracer.spans:
        if parent is not None:
            children_ns[parent] += end - start
    by_name_ns: dict[str, list[int]] = defaultdict(list)
    layers: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_ms": 0.0})
    request_ns = glue_ns = 0
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        self_ns = end - start - children_ns[index]
        if name == REQUEST:
            request_ns += end - start
            glue_ns += self_ns
            continue
        by_name_ns[name].append(end - start)
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["busy_ms"] += self_ns / 1e6
    functions = {
        name: {
            "calls": len(durations),
            "busy_ms": sum(durations) / 1e6,
            "p50_ms": statistics.median(durations) / 1e6,
        }
        for name, durations in by_name_ns.items()
    }
    return {
        "request_ms": request_ns / 1e6,
        "layer_self_ms": (request_ns - glue_ns) / 1e6,
        "glue_ms": glue_ns / 1e6,
        "functions": functions,
        "layers": dict(layers),
    }
