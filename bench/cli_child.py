"""Run ``treeabel.cli`` with spans around its calls into the other layers.

    python3 bench/cli_child.py SPANS_FILE COMMAND ARGS...

Traced ``cli`` requests start this script instead of ``python -m
treeabel.cli``.  It wraps the functions the CLI module calls, runs
``treeabel.cli.main`` on the remaining arguments, and writes its spans to
SPANS_FILE as JSON: ``[name, start_ns, end_ns, parent]``, where parent
indexes an earlier span in the list or is null.  ``perf_counter_ns`` reads
the system-wide monotonic clock on Linux, so these times line up with the
parent benchmark's.  The lazily built tail index is charged to
``curves.tails``, nested inside whichever call first touches it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

spans: list[list] = []
stack: list[int] = []


def open_span(name: str) -> int:
    spans.append([name, perf_counter_ns(), None, stack[-1] if stack else None])
    stack.append(len(spans) - 1)
    return stack[-1]


def close_span(index: int) -> None:
    spans[index][2] = perf_counter_ns()
    stack.pop()


def timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = open_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    return wrapper


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    index = open_span("cli.import")
    from functools import cached_property

    import treeabel.cli as cli
    from treeabel.curves import CurveTree

    close_span(index)
    for attr, name in (
        ("validate", "curves.validate"),
        ("classify", "classify.classify"),
        ("enumerate_quasistable", "stability.enumerate_quasistable"),
        ("enumerate_semistable", "stability.enumerate_semistable"),
        ("e_sequence", "abel.e_sequence"),
        ("abel_d", "abel.abel_d"),
        ("compare_principals", "compare.compare_principals"),
        ("random_tree", "generator.random_tree"),
    ):
        setattr(cli, attr, timed(name, getattr(cli, attr)))
    CurveTree.from_data = classmethod(timed("curves.from_data", CurveTree.from_data.__func__))
    tails = cached_property(timed("curves.tails", CurveTree.tails.func))
    tails.__set_name__(CurveTree, "tails")
    CurveTree.tails = tails
    try:
        return cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


if __name__ == "__main__":
    raise SystemExit(main())
