"""Tests of the benchmark itself, each workload at a tiny length.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json

import pytest

import run

TINY_SECONDS = 0.3
WORKLOAD_NAMES = ("corpus-mix", "chain-session", "cli")


def declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_benchmark_json_names_the_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(name, trace, kind):
    result = run.run(name, seed=0, seconds=TINY_SECONDS, trace=trace)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1
    units = {metric: m["unit"] for metric, m in result["metrics"].items()}
    assert units == declared(kind)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_corrupted_expected_output_counts_as_failure(name):
    expected = run.load_expected(name)
    workload, _ = run.set_up(run.WORKLOADS[name], 0, run.NullTracer())
    first = workload.pool[0].key
    expected[first] = "0" * len(expected[first])
    result = run.run(name, seed=0, seconds=TINY_SECONDS, trace=False, expected=expected)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(f.startswith(f"{first}: output digest") for f in result["failures"])


def test_missing_package_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cli", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
