"""Tests of the benchmark itself: tiny-scale smoke runs of every
workload, wrapper removal, and the self-time accounting.

Run from the repository root: ``python3 -m pytest wallbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from wallbench.bench import (
    END_TO_END_UNITS, median, per_layer_units, run_traced, run_untraced,
    tail,
)
from wallbench.calibrate import NOMINAL_MS, calibrate
from wallbench.testbeds import WORKLOADS, make_workload
from wallbench.tracer import ENTRY_POINTS, Span, Tracer, attribute

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.005


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_smoke(name, tmp_path):
    outcome = run_untraced(make_workload(name, seed=7, scale=TINY),
                           seconds=0.3, workdir=tmp_path)
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1
    assert set(outcome.metrics) == set(END_TO_END_UNITS)
    assert all(value > 0 for value, _unit in outcome.metrics.values())
    assert any(note.startswith("exact-repeat: identical")
               for note in outcome.notes)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    outcome = run_traced(make_workload(name, seed=7, scale=TINY),
                         seconds=0.6, workdir=tmp_path, spans_path=spans)
    assert outcome.correct, outcome.problems
    assert list(outcome.metrics) == list(per_layer_units())
    assert outcome.metrics["system.run.self_ms"][0] > 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert any(record["name"] == "xmldb.parse" for record in records)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_wrappers_are_removed():
    import repro.system.federation as federation
    import repro.xmldb.parser as parser
    from repro.xrpc.messages import ResponseMessage

    parse = parser.parse_document
    submit = vars(ThreadPoolExecutor)["submit"]
    from_xml = vars(ResponseMessage)["from_xml"]
    tracer = Tracer()
    tracer.install()
    replaced = list(tracer.patched)
    try:
        # The defining module and every importer see the same wrapper.
        assert parser.parse_document is not parse
        assert federation.parse_document is parser.parse_document
        assert parser.parse_document.__wrapped__ is parse
        assert vars(ThreadPoolExecutor)["submit"] is not submit
        assert vars(ResponseMessage)["from_xml"] is not from_xml
        # Every entry point plus the two context hooks, and more: the
        # importing modules' bindings of each function.
        assert len(replaced) > len(ENTRY_POINTS) + 2
    finally:
        tracer.uninstall()
    for owner, attribute_name, original in replaced:
        assert vars(owner)[attribute_name] is original, attribute_name
    assert parser.parse_document is parse
    assert federation.parse_document is parse
    assert vars(ThreadPoolExecutor)["submit"] is submit
    assert vars(ResponseMessage)["from_xml"] is from_xml
    assert tracer.patched == []


def _span(name, parent, start, end, op=1):
    span = Span(name, op, parent, start)
    span.end = end
    return span


def test_attribute_nested_parallel_and_gaps():
    root = _span("op", None, 0.0, 10.0)
    outer = _span("system.run", root, 1.0, 9.0)
    inner = _span("xmldb.parse", outer, 2.0, 4.0)
    # Two shard calls overlapping in time on worker threads.
    left = _span("runtime.wire", outer, 5.0, 8.0)
    right = _span("xrpc.handle", outer, 6.0, 7.0)
    self_s, unattributed = attribute(root, [outer, inner, left, right])
    assert unattributed == pytest.approx(2.0)
    assert self_s["xmldb.parse"] == pytest.approx(2.0)
    assert self_s["system.run"] == pytest.approx(3.0)  # 1-2, 4-5, 8-9
    assert self_s["runtime.wire"] == pytest.approx(2.5)  # 5-6, 7-8, half 6-7
    assert self_s["xrpc.handle"] == pytest.approx(0.5)
    assert sum(self_s.values()) + unattributed == pytest.approx(10.0)


def test_self_times_sum_to_wall_time(tmp_path):
    """On a real traced run of every operation type, including the
    read-write workload's engine workers."""
    for name in ("fig9-sharded", "tenants-rw"):
        workload = make_workload(name, seed=3, scale=TINY)
        oracle = workload.oracle()
        testbed = workload.build(tmp_path)
        tracer = Tracer()
        try:
            with tracer.installed():
                for op in workload.warmup_ops():
                    with tracer.operation():
                        testbed.execute(op)
        finally:
            testbed.close()
        assert oracle
        by_op = tracer.spans_by_op()
        assert tracer.operations
        for root in tracer.operations:
            self_s, unattributed = attribute(root, by_op.get(root.op, []))
            wall = root.end - root.start
            assert sum(self_s.values()) + unattributed == \
                pytest.approx(wall, abs=1e-9)
            assert unattributed < wall


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, percentile = tail(values)
    assert percentile == pytest.approx(100 * 89 / 99)
    assert sum(v > value for v in values) == 10


def test_median_estimate():
    assert median([4.0] * 9) == pytest.approx(4.0)
    assert median([float(v) for v in range(101)]) == pytest.approx(50.0)
    # Two equal modes: the estimate sits between them, not on one.
    bimodal = [10.0 + v / 100 for v in range(50)] + \
        [100.0 + v / 100 for v in range(50)]
    assert 20 < median(bimodal) < 90


def test_calibration_divides_by_nearby_kernel_readings():
    steady = calibrate([1.0, 2.0], [NOMINAL_MS] * 3)
    assert steady == pytest.approx([1.0, 2.0])
    # Twice as slow throughout: half the calibrated time. One outlying
    # reading is outvoted by its neighbours.
    slow = calibrate([1.0] * 8, [2 * NOMINAL_MS] * 4 + [9.0]
                     + [2 * NOMINAL_MS] * 4)
    assert slow == pytest.approx([0.5] * 8)
    with pytest.raises(ValueError):
        calibrate([1.0], [NOMINAL_MS])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "wallbench", tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "fig9-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""
