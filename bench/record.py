"""Record the expected output digest of every item a workload can serve.

    python3 bench/record.py corpus-mix chain-session cli

Each workload's universe of items is run once through the same request,
normalization and fact checks as the benchmark, and the digests are
written to ``bench/expected/<workload>.txt``.  Recording refuses to write
a file when any item fails its fact checks.
"""

from __future__ import annotations

import sys

from run import BENCH, ROOT, load_oracles, load_treeabel
from spans import NullTracer
from workloads import WORKLOADS, digest


def record(name: str) -> None:
    workload = WORKLOADS[name](load_treeabel(), ROOT, seed=-1)
    workload.oracles = load_oracles()
    workload.build_universe(NullTracer())
    lines, problems = [], []
    for pos, item in enumerate(workload.pool):
        request = workload.prepare(item, "x", 0, pos)
        result = workload.execute(request, NullTracer())
        problems += [f"{item.key}: {p}" for p in workload.facts(request, result)]
        lines.append(f"{item.key} {digest(workload.normalize(request, result))}\n")
    if problems:
        raise SystemExit("\n".join(problems))
    path = BENCH / "expected" / f"{name}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(sorted(lines)), encoding="utf-8")
    print(f"{name}: {len(lines)} items -> {path.relative_to(ROOT)}")


if __name__ == "__main__":
    for workload_name in sys.argv[1:]:
        record(workload_name)
