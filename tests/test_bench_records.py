"""The benchmark's records at the repository root and its hooks into the library.

Every ``BENCH_<change>.json`` holds the parent and change runs behind one
performance claim.  These checks keep each record readable against the
benchmark's own definition in ``BENCHMARK.json``, and check that every
library name the benchmark wraps or reads still resolves.  They only read
``BENCHMARK.json`` and ``perfbench/``.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import sweepmap.cli
import sweepmap.paths

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
QUARTILES = ("q1", "median", "q3")


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def definition():
    spec = read_json(ROOT / "BENCHMARK.json")
    return {w["name"] for w in spec["workloads"]}, {m["name"]: m for m in spec["end_to_end"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_matches_the_benchmark(path, definition):
    workloads, metrics = definition
    record = read_json(path)
    claim = record["claim"]
    assert claim["workload"] in workloads
    assert claim["metric"] in metrics
    assert record["workloads"], "a record needs at least one workload section"
    for name, section in record["workloads"].items():
        assert name in workloads
        assert set(metrics) <= set(section["metrics"]), f"{name} lacks an end-to-end metric"
        for metric, spec in metrics.items():
            entry = section["metrics"][metric]
            assert entry["unit"] == spec["unit"] and entry["better"] == spec["better"]
            for side in ("parent", "change"):
                values = [entry[side][q] for q in QUARTILES]
                assert all(isinstance(v, (int, float)) for v in values), f"{name} {metric} {side}"
                assert values == sorted(values), f"{name} {metric} {side} quartiles out of order"
    claimed = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert claim["parent_median"] == claimed["parent"]["median"]
    assert claim["change_median"] == claimed["change"]["median"]


def test_benchmark_hooks_resolve():
    # perfbench/tracing.py wraps the traced layers by module and name, and
    # perfbench/run.py reads the default checks mode; a removed name fails
    # every benchmark run, so install and uninstall the tracer here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    row_counts = sweepmap.paths.row_counts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sweepmap.paths.row_counts is not row_counts
    finally:
        tracer.uninstall()
    assert sweepmap.paths.row_counts is row_counts
    assert inspect.signature(sweepmap.invert_pipeline).parameters["checks"].default == "error"
