"""treeabel benchmark: one seeded workload, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload corpus-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints per-layer metrics from a traced run, together with the tracing
overhead against an untraced pass over the same requests.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and predictions are described in
``bench/NOTES.md``.

The benchmark uses no threads and runs at most one CLI subprocess at a
time.  It imports ``treeabel`` from ``src/`` next to this directory and
exits with status 2, printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from spans import NullTracer, Tracer, summarize  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, canonical, digest  # noqa: E402

SETUP_REPEATS = 5
REQUEST_CAP_S = 10.0  # an in-process request running longer is a timeout
FLOOR_REPEATS = 7
LAYERS = ("curves", "classify", "stability", "abel", "compare", "generator", "cli")
TRACED_FUNCTIONS = (
    "curves.from_data", "curves.tails", "classify.classify",
    "stability.is_quasistable", "stability.enumerate_quasistable",
    "stability.enumerate_semistable", "abel.e_sequence", "abel.abel_d",
    "compare.compare_principals", "generator.random_tree",
)
TRACED_COUNTS = (
    "stability.multidegrees_emitted", "curves.components",
    "abel.e_sequence.degrees", "abel.abel_d.points",
)
MAX_REPORTED_FAILURES = 5
RSS_AT_REQUEST = 2048  # peak RSS is read after this many requests, or at the end
CALIBRATION_LOOP = 20_000  # iterations of the in-process probe loop
STARTUP_PROBE = "import argparse, dataclasses, functools, heapq, json, random, typing"


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler swallows it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def load_treeabel():
    """Import treeabel afresh from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "treeabel" or m.startswith("treeabel.")]:
        del sys.modules[name]
    lib = importlib.import_module("treeabel")
    if not Path(lib.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"treeabel imported from {lib.__file__}, not from {ROOT / 'src'}")
    return lib


def load_oracles():
    """tests/oracles.py, the all-subsets brute force, imported read-only."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_expected(name: str) -> dict[str, str]:
    path = BENCH / "expected" / f"{name}.txt"
    with open(path, encoding="utf-8") as handle:
        return dict(line.split() for line in handle if line.strip())


def loop_probe() -> int:
    """ns for a fixed pure-Python integer loop."""
    start = perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return perf_counter_ns() - start


def startup_probe() -> int:
    """ns to start an interpreter that imports the standard modules treeabel.cli uses."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], cwd=ROOT, check=True)
    return perf_counter_ns() - start


# probe, its time at the reference speed, wall seconds between samples
PROBES = {
    True: (loop_probe, 1_500_000, 0.1),  # in-process workloads
    False: (startup_probe, 75_000_000, 1.0),  # one CLI process per request
}


class Speedometer:
    """Current machine speed, from a fixed probe run between requests.

    On a shared host the speed of one core drifts by a fifth or more within
    seconds, and by as much between minutes, whatever runs on it.  Timed
    metrics are therefore reported at a reference speed: each raw time is
    multiplied by the probe's reference time over the median of all probe
    times in the run.  One factor per run removes the drift between runs
    without adding the probe's own noise to each request.  The probe never
    runs treeabel code, so it cannot absorb a change to the program.  In-process workloads use an integer
    loop.  The CLI workload uses an interpreter start that imports the
    standard modules the CLI imports, which tracks process start far
    better than the loop does.  The raw values are printed next to the
    scaled ones.
    """

    def __init__(self, in_process: bool) -> None:
        self.probe, self.reference_ns, self.interval_s = PROBES[in_process]
        self.samples: list[int] = []
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now - self.last >= self.interval_s:
            self.samples.append(self.probe())
            self.last = now

    def scale(self) -> float:
        return self.reference_ns / statistics.median(self.samples)


def set_up(workload_cls, seed: int, tracer):
    """Import, generate inputs (and CLI files), warm up; return workload and seconds."""
    start = perf_counter()
    workload = workload_cls(load_treeabel(), ROOT, seed)
    workload.build(tracer)
    workload.warm_up(NullTracer())
    return workload, perf_counter() - start


@dataclass
class Phase:
    speed: Speedometer
    latencies_ns: list[int] = field(default_factory=list)
    timed_ns: int = 0
    failures: list[str] = field(default_factory=list)
    trees_seen: set[str] = field(default_factory=set)
    trees_repeated: int = 0
    rss_mb: float | None = None

    @property
    def requests_per_s(self) -> float:
        return len(self.latencies_ns) / (self.timed_ns / 1e9)



def run_loop(workload, expected, runs, seconds: float, limit: float) -> None:
    """Closed loop over the workload's stream, one request at a time.

    ``runs`` holds (tag, tracer, phase) triples; each request is executed
    once per triple, in alternating order, so a traced and an untraced
    execution of the same request see the same process state.  The loop
    stops when the first phase has `seconds` of request time or `limit`
    requests.  Only ``workload.execute`` is timed: preparing inputs,
    hashing outputs and checking facts happen between requests.
    """
    lead = runs[0][2]
    for pass_no, pos, item in workload.stream():
        if lead.timed_ns >= seconds * 1e9 or len(lead.latencies_ns) >= limit:
            break
        for tag, tracer, phase in runs if pos % 2 == 0 else runs[::-1]:
            execute_one(workload, expected, item, tag, tracer, phase, pass_no, pos)
        if len(lead.latencies_ns) == RSS_AT_REQUEST:
            lead.rss_mb = peak_rss_mb(workload)
    if lead.rss_mb is None:
        lead.rss_mb = peak_rss_mb(workload)


def execute_one(workload, expected, item, tag, tracer, phase: Phase, pass_no: int, pos: int):
    request = workload.prepare(item, tag, pass_no, pos)
    if request.tree_key is not None:
        if request.tree_key in phase.trees_seen:
            phase.trees_repeated += 1
        phase.trees_seen.add(request.tree_key)
    error = None
    phase.speed.sample()
    tracer.begin_request(len(phase.latencies_ns))
    start = perf_counter_ns()
    try:
        if workload.in_process:
            signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
        result = workload.execute(request, tracer)
    except (RequestTimeout, subprocess.TimeoutExpired):
        error = "timeout"
    except Exception as exc:  # any library failure is a failed request, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = perf_counter_ns()
    tracer.end_request(start, end)
    phase.latencies_ns.append(end - start)
    phase.timed_ns += end - start
    if error is None:
        error = check(workload, expected, request, result, first=pass_no == 0)
    if error is not None:
        phase.failures.append(f"{item.key}: {error}")


def check(workload, expected, request, result, first: bool) -> str | None:
    """Recorded digest on every request; paper facts on the first pass."""
    want = expected.get(request.item.key)
    got = digest(workload.normalize(request, result))
    if want is None:
        return "no recorded expected output"
    if got != want:
        return f"output digest {got} differs from the recorded {want}"
    if first:
        problems = workload.facts(request, result)
        if problems:
            return "; ".join(problems)
    return None


def percentile(latencies_ns: list[int], q: int) -> float:
    """q-th percentile in milliseconds (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(latencies_ns, n=100)[q - 1] / 1e6


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def startup_floors() -> tuple[float, float]:
    """Median ms of a bare interpreter, and of `import treeabel.cli` beyond it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_ms(code: str) -> float:
        runs = []
        for _ in range(FLOOR_REPEATS):
            start = perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            runs.append(perf_counter_ns() - start)
        return statistics.median(runs) / 1e6

    interpreter = median_ms("pass")
    return interpreter, median_ms("import treeabel.cli") - interpreter


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, overhead_pct: float,
                  phase: Phase, trees: Phase) -> dict[str, tuple[float, str]]:
    traced = summarize(tracer)
    setup = summarize(setup_tracer)
    request_ms = traced["request_ms"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        stats = traced["layers"].get(layer, {"calls": 0, "busy_ms": 0.0})
        metrics[f"{layer}.calls"] = (stats["calls"], "count")
        metrics[f"{layer}.busy_ms"] = (stats["busy_ms"], "ms")
        metrics[f"{layer}.share_pct"] = (100 * stats["busy_ms"] / request_ms, "%")
    for name in TRACED_FUNCTIONS:
        source = setup if name.startswith("generator.") else traced
        stats = source["functions"].get(name, {"calls": 0, "busy_ms": 0.0})
        metrics[f"{name}.busy_ms"] = (stats["busy_ms"], "ms")
    metrics["compare.compare_principals.calls"] = (
        traced["functions"].get("compare.compare_principals", {"calls": 0})["calls"], "count")
    metrics["generator.random_tree.calls"] = (
        setup["functions"].get("generator.random_tree", {"calls": 0})["calls"], "count")
    for name in TRACED_COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    for command in CLI_COMMANDS:
        stats = traced["functions"].get(f"cli.{command}", {"p50_ms": 0.0})
        metrics[f"cli.{command}.p50_ms"] = (stats["p50_ms"], "ms")
    interpreter_ms, import_ms = startup_floors()
    metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["bench.glue_ms"] = (traced["glue_ms"], "ms")
    metrics["trace.requests"] = (len(phase.latencies_ns), "count")
    metrics["trace.request_ms"] = (request_ms, "ms")
    metrics["trace.coverage_pct"] = (100 * traced["layer_self_ms"] / request_ms, "%")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trees_distinct"] = (len(trees.trees_seen), "count")
    metrics["trees_repeated"] = (trees.trees_repeated, "count")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        expected: dict[str, str] | None = None) -> dict:
    """Run one workload and return the result object printed as the last line."""
    workload_cls = WORKLOADS[workload_name]
    signal.signal(signal.SIGALRM, _on_alarm)
    if expected is None:
        expected = load_expected(workload_name)
    speed = Speedometer(workload_cls.in_process)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        setup_tracer = Tracer() if trace else NullTracer()
        workload, elapsed = set_up(workload_cls, seed, setup_tracer)
        setup_times.append(elapsed)
    workload.oracles = load_oracles()

    untraced = Phase(speed)
    if trace:
        tracer, traced = Tracer(), Phase(speed)
        runs = [("u", NullTracer(), untraced), ("t", tracer, traced)]
        run_loop(workload, expected, runs, seconds, len(workload.pool) * workload.trace_passes)
        phases = [untraced, traced]
        overhead = 100 * (1 - traced.requests_per_s / untraced.requests_per_s)
        metrics = layer_metrics(tracer, setup_tracer, overhead, traced, untraced)
        metrics["calibration.probe_ms"] = (statistics.median(speed.samples) / 1e6, "ms")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.spans.extend(setup_tracer.spans)
        tracer.write(out_dir / f"trace-{workload_name}-{seed}.jsonl")
    else:
        run_loop(workload, expected, [("r", NullTracer(), untraced)], seconds, math.inf)
        phases = [untraced]
        scale = speed.scale()
        lat = untraced.latencies_ns
        metrics = {
            "setup_s": (statistics.median(setup_times) * scale, "s"),
            "requests_per_s": (untraced.requests_per_s / scale, "1/s"),
            "request_p50_ms": (statistics.median(lat) / 1e6 * scale, "ms"),
            "request_p90_ms": (percentile(lat, 90) * scale, "ms"),
            "peak_rss_mb": (untraced.rss_mb, "MB"),
        }
    attempted = sum(len(p.latencies_ns) for p in phases)
    failures = [f for p in phases for f in p.failures]
    failed = len(failures)
    if trace:
        metrics["failed_frac"] = (failed / attempted, "frac")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "requests": len(untraced.latencies_ns),
        "beyond_p90": len(untraced.latencies_ns) - math.ceil(0.9 * len(untraced.latencies_ns)),
        "trees_distinct": len(untraced.trees_seen),
        "trees_repeated": untraced.trees_repeated,
        "setup_runs_s": setup_times,
        "raw": {
            "setup_s": statistics.median(setup_times),
            "requests_per_s": untraced.requests_per_s,
            "request_p50_ms": statistics.median(untraced.latencies_ns) / 1e6,
            "request_p90_ms": percentile(untraced.latencies_ns, 90),
        },
        "calibration": (statistics.median(speed.samples) / 1e6, speed.reference_ns / 1e6),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treeabel" / "__init__.py").is_file():
        print(f"error: no treeabel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['requests']} timed requests, {result['beyond_p90']} beyond p90, "
          f"setup runs {['%.3f' % s for s in result['setup_runs_s']]}")
    print(f"trees: {result['trees_distinct']} distinct, {result['trees_repeated']} repeated")
    probe_ms, reference_ms = result["calibration"]
    print(f"calibration probe median {probe_ms:.4f} ms (reference {reference_ms} ms); unscaled: "
          + ", ".join(f"{name} {value:.6g}" for name, value in result["raw"].items()))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_frac {failed / attempted} frac ({failed} of {attempted})")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(canonical({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
