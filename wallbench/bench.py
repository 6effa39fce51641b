"""Measurement: set-up, timed closed loops, the traced run, metrics.

An untraced run (``trace=False``) gives the end-to-end metrics: it sets
the testbed up several times (``setup_s`` is the median), then drives
the clients for the whole run length with no wrapper installed.

A traced run (``trace=True``) gives the per-layer metrics. It drives
the same testbed for half the run length untraced and half traced, so
``obs.trace_overhead`` compares the two within one process.

Every time the benchmark reports is calibrated for the machine's
speed, measured by a reference kernel run around each timed interval
(see ``calibrate.py``). Both runs check every answer against the
workload's oracle, and both compare the deterministic counts of the
set-up's warm-up pass across fresh testbeds (the exact-repeat check).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator

from repro.decompose import Strategy

from wallbench.calibrate import NOMINAL_MS, calibrate, reference_ms
from wallbench.testbeds import Op, Testbed, Workload, answer
from wallbench.tracer import LAYERS, QUEUE_WAIT, Span, Tracer, attribute

#: Untraced runs set up at least SETUPS times, and more (up to
#: MAX_SETUPS) until the set-ups took SETUP_SECONDS of calibrated time,
#: so a cheap set-up's median still rests on seconds of measurement.
#: ``setup_s`` is the median.
SETUPS = 3
SETUP_SECONDS = 2.5
MAX_SETUPS = 9
#: Traced runs set up twice, the pair the exact-repeat check compares.
TRACE_SETUPS = 2
#: ``tail_ms`` is the highest percentile with this many samples beyond.
TAIL_BEYOND = 10

STRATEGIES = tuple(strategy.value for strategy in Strategy)
OP_KINDS = STRATEGIES + ("read", "write")
UNATTRIBUTED = "system.unattributed"

END_TO_END_UNITS = {
    "setup_s": "s", "qps": "ops/s", "p50_ms": "ms", "tail_ms": "ms",
    "wire_bytes_per_op": "bytes", "peak_rss_mb": "MB",
}


def _self_metric(layer: str) -> str:
    if layer == UNATTRIBUTED:
        return "system.unattributed_ms"
    if layer == QUEUE_WAIT:
        return "runtime.engine.queue_wait_ms"
    return f"{layer}.self_ms"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for layer in [*LAYERS, UNATTRIBUTED]:
        units[_self_metric(layer)] = "ms"
        if layer != QUEUE_WAIT:
            for strategy in STRATEGIES:
                units[f"{_self_metric(layer)}.{strategy}"] = "ms"
    units.update({
        "xmldb.parse.calls": "count", "xmldb.parse.bytes": "bytes",
        "xmldb.pool.hit_ratio": "ratio", "xmldb.pool.misses": "count",
        "xmldb.pool.evictions": "count",
        "xrpc.messages": "count", "xrpc.message_bytes": "bytes",
        "planner.plan_cache.hit_ratio": "ratio",
        "planner.plans_enumerated": "count",
        "runtime.cache.hit_ratio": "ratio",
        "runtime.cache.invalidations": "count",
        "runtime.batch.merge_rate": "ratio",
        "cluster.shard_calls": "count", "cluster.shards_skipped": "count",
        "cluster.failovers": "count", "cluster.retries": "count",
        "net.sim_ms": "ms",
        **{f"net.sim_ms.{strategy}": "ms" for strategy in STRATEGIES},
        "net.rpc_calls": "count",
        "obs.trace_overhead": "ratio",
        "machine.ref_ms": "ms",
        **{f"p50_ms.{kind}": "ms" for kind in OP_KINDS},
    })
    return units


@dataclass
class Sample:
    """One completed (or failed) operation. ``calibrated_s`` is its
    latency calibrated for the machine's speed."""

    kind: str
    latency_s: float
    ok: bool
    error: str = ""
    sim_s: float = 0.0
    rpc_calls: int = 0
    root: Span | None = None
    calibrated_s: float = 0.0

    @property
    def calibrated_ms(self) -> float:
        return self.calibrated_s * 1000


@dataclass
class Phase:
    """The samples of one timed phase, its raw wall length, its client
    count and the kernel readings taken during it."""

    samples: list[Sample]
    raw_s: float
    clients: int
    readings: list[float]

    @property
    def qps(self) -> float:
        """Calibrated throughput of the closed loop: clients over mean
        calibrated latency (Little's law), which leaves out the
        benchmark's own work between operations."""
        return (self.clients * len(self.samples)
                / sum(s.calibrated_s for s in self.samples))

    @property
    def raw_qps(self) -> float:
        return len(self.samples) / self.raw_s


def run_op(testbed: Testbed, op: Op, oracle: dict[str, frozenset[str]],
           tracer: Tracer | None = None) -> Sample:
    """Execute one operation and check its answer (outside the timing)."""
    root = None
    started = perf_counter()
    try:
        if tracer is None:
            result = testbed.execute(op)
        else:
            with tracer.operation() as root:
                result = testbed.execute(op)
        latency = perf_counter() - started
    except Exception as exc:  # an operation that raised counts as failed
        return Sample(op.kind, perf_counter() - started, False,
                      error=f"{type(exc).__name__}: {exc}", root=root)
    if result is None:
        return Sample(op.kind, latency, True, root=root)
    ok = answer(result) in oracle.get(op.text, ())
    return Sample(op.kind, latency, ok, "" if ok else "wrong answer",
                  result.stats.times.total, result.stats.rpc_calls, root)


def run_ops(testbed: Testbed, ops: Iterator[Op],
            oracle: dict[str, frozenset[str]], tracer: Tracer | None,
            readings: list[float]) -> Iterator[Sample]:
    """Run ``ops`` in order, taking a kernel reading after each one;
    ``readings`` must already hold the one taken before the first."""
    for op in ops:
        sample = run_op(testbed, op, oracle, tracer)
        readings.append(reference_ms())
        yield sample


def _calibrate_samples(samples: list[Sample], readings: list[float],
                       lead_s: list[float] = ()) -> list[float]:
    """Fill in ``calibrated_s`` of samples run back to back on one
    thread; ``lead_s`` are intervals timed before the first sample
    (their calibrated lengths are returned)."""
    intervals = [*lead_s, *(s.latency_s for s in samples)]
    calibrated = calibrate(intervals, readings)
    for sample, value in zip(samples, calibrated[len(lead_s):]):
        sample.calibrated_s = value
    return calibrated[:len(lead_s)]


def drive(testbed: Testbed, streams: list[Iterator[list[Op]]],
          seconds: float, oracle: dict[str, frozenset[str]],
          tracer: Tracer | None = None) -> Phase:
    """Closed loop: every client runs whole rounds of its stream back
    to back until the deadline."""
    outputs: list[list[Sample]] = [[] for _ in streams]
    readings: list[list[float]] = [[] for _ in streams]
    errors: list[BaseException] = []
    started = perf_counter()
    deadline = started + seconds

    def client(stream, out: list[Sample], client_readings) -> None:
        try:
            client_readings.append(reference_ms())
            for round_ops in stream:
                out.extend(run_ops(testbed, round_ops, oracle, tracer,
                                   client_readings))
                if perf_counter() >= deadline:
                    return
        except BaseException as exc:  # surfaced by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=args,
                                name=f"wallbench-client-{index}",
                                daemon=True)
               for index, args in enumerate(zip(streams, outputs, readings))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    elapsed = perf_counter() - started
    if errors:
        raise errors[0]
    for out, client_readings in zip(outputs, readings):
        _calibrate_samples(out, client_readings)
    return Phase([sample for out in outputs for sample in out], elapsed,
                 len(streams), [r for rs in readings for r in rs])


def _pool_totals(testbed: Testbed) -> tuple[int, int, int]:
    pools = testbed.pools()
    return (sum(pool.hits for pool in pools),
            sum(pool.misses for pool in pools),
            sum(pool.evictions for pool in pools))


def set_up(workload: Workload, workdir: Path,
           oracle: dict[str, frozenset[str]],
           tracer: Tracer | None = None
           ) -> tuple[Testbed, tuple[float, float], list[Sample],
                      dict[str, float]]:
    """Build the testbed and run its warm-up pass: every distinct
    operation once, in order. Returns the testbed, the set-up time
    ``(raw, calibrated)`` in seconds (building plus the operations, not
    the answer checks), the warm-up samples, and the pass's counts that
    must repeat exactly on a fresh testbed with the same seed."""
    gc.collect()
    ops = workload.warmup_ops()
    spans0 = len(tracer.spans) if tracer is not None else 0
    readings = [reference_ms()]
    started = perf_counter()
    testbed = workload.build(workdir)
    build_s = perf_counter() - started
    readings.append(reference_ms())
    wire0 = testbed.wire_bytes()
    misses0 = _pool_totals(testbed)[1]
    samples = list(run_ops(testbed, ops, oracle, tracer, readings))
    build_calibrated, = _calibrate_samples(samples, readings, [build_s])
    setup = (build_s + sum(s.latency_s for s in samples),
             build_calibrated + sum(s.calibrated_s for s in samples))
    count = len(ops)
    counts = {
        "wire_bytes_per_op": (testbed.wire_bytes() - wire0) / count,
        "net.sim_ms": sum(s.sim_s for s in samples) * 1000 / count,
        "net.rpc_calls": sum(s.rpc_calls for s in samples) / count,
        "xmldb.pool.misses": (_pool_totals(testbed)[1] - misses0) / count,
    }
    if tracer is not None:
        spans = tracer.spans[spans0:]
        parses = [span for span in spans if span.name == "xmldb.parse"]
        counts.update({
            "xmldb.parse.calls": len(parses) / count,
            "xmldb.parse.bytes": sum(s.nbytes for s in parses) / count,
            "xrpc.messages": sum(span.name == "xrpc.encode"
                                 for span in spans) / count,
        })
    return testbed, setup, samples, counts


def repeat_mismatches(passes: list[dict[str, float]]) -> list[str]:
    """Counts that differ between passes (empty when they repeat)."""
    return [f"{name}: {[counts[name] for counts in passes]}"
            for name in passes[0]
            if any(counts[name] != passes[0][name] for counts in passes)]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all
    order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    distribution.

    A latency sample here mixes modes, one per operation type, so one
    order statistic can sit in the gap between two modes: on the
    Figure 9 workloads the plain sample median lies halfway between two
    extreme samples and moved by 22% of itself from run to run. The
    estimate weights the order statistics around the quantile instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    a, b = q * (count + 1), (1 - q) * (count + 1)
    # The Beta CDF at i/count, by the trapezoid rule on a grid fine
    # against the distribution's width (at least 1 / (2 sqrt(count))).
    steps = 64 * count
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = [0.0] + [
        math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                 - log_norm)
        for t in (step / steps for step in range(1, steps))] + [0.0]
    cdf, total = [0.0], 0.0
    for step in range(1, steps + 1):
        total += (density[step - 1] + density[step]) / (2 * steps)
        if step % 64 == 0:
            cdf.append(total)
    return sum((cdf[i + 1] - cdf[i]) * value
               for i, value in enumerate(ordered)) / total


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it:
    ``(Harrell-Davis estimate, percentile)``. With too few samples, the
    maximum."""
    count = len(latencies_ms)
    if count <= TAIL_BEYOND + 1:
        return max(latencies_ms), 100.0
    q = (count - 1 - TAIL_BEYOND) / (count - 1)
    return quantile(latencies_ms, q), 100.0 * q


def _median_ms(samples: list[Sample], raw: bool = False) -> float:
    if raw:
        return median([s.latency_s * 1000 for s in samples])
    return median([s.calibrated_ms for s in samples])


@dataclass
class Outcome:
    """What one run measured, ready to print."""

    workload: str
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    def result(self) -> dict[str, object]:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def _account(outcome: Outcome, samples: list[Sample], phase: str) -> None:
    bad = [s for s in samples if not s.ok]
    if bad:
        outcome.problems.append(
            f"{phase}: {len(bad)} of {len(samples)} operations failed, "
            f"first: {bad[0].kind}: {bad[0].error}")


def _set_up_repeatedly(workload: Workload, workdir: Path,
                       oracle: dict[str, frozenset[str]], times: int,
                       outcome: Outcome, tracer: Tracer | None = None,
                       seconds: float = 0.0
                       ) -> tuple[Testbed, list[tuple[float, float]]]:
    """Set up fresh testbeds, at least ``times`` of them and more (up
    to MAX_SETUPS) until they took ``seconds`` of calibrated time; check
    their warm-up passes and compare their exact-repeat counts. Returns
    the last testbed and every set-up's ``(raw, calibrated)`` time."""
    testbed = None
    setups, passes = [], []
    while len(setups) < times or (sum(c for _, c in setups) < seconds
                                  and len(setups) < MAX_SETUPS):
        if testbed is not None:
            testbed.close()
        testbed, setup, samples, counts = set_up(workload, workdir, oracle,
                                                 tracer)
        setups.append(setup)
        passes.append(counts)
        _account(outcome, samples, "warm-up")
    mismatches = repeat_mismatches(passes)
    if mismatches:
        outcome.problems.append(
            "exact-repeat counts differ across fresh testbeds: "
            + "; ".join(mismatches))
    else:
        outcome.notes.append(
            f"exact-repeat: identical over {len(passes)} fresh testbeds: "
            + ", ".join(f"{name}={value:.6g}"
                        for name, value in passes[0].items()))
    return testbed, setups


def _ref_note(readings: list[float]) -> str:
    return (f"machine: reference kernel {statistics.median(readings):.3f} ms"
            f" (median of {len(readings)}, nominal {NOMINAL_MS} ms)")


def run_untraced(workload: Workload, seconds: float, workdir: Path
                 ) -> Outcome:
    outcome = Outcome(workload.name, trace=False)
    oracle = workload.oracle()
    testbed, setups = _set_up_repeatedly(workload, workdir, oracle, SETUPS,
                                         outcome, seconds=SETUP_SECONDS)
    try:
        gc.collect()
        wire0 = testbed.wire_bytes()
        phase = drive(testbed, workload.streams(), seconds, oracle)
        wire = testbed.wire_bytes() - wire0
    finally:
        testbed.close()
    samples = phase.samples
    _account(outcome, samples, "timed phase")
    count = len(samples)
    tail_ms, tail_pct = tail([s.calibrated_ms for s in samples])
    outcome.attempted = count
    outcome.failed = sum(not s.ok for s in samples)
    m = outcome.metrics
    m["setup_s"] = (statistics.median(c for _, c in setups), "s")
    m["qps"] = (phase.qps, "ops/s")
    m["p50_ms"] = (_median_ms(samples), "ms")
    m["tail_ms"] = (tail_ms, "ms")
    m["wire_bytes_per_op"] = (wire / count, "bytes")
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    outcome.notes.append(
        "raw wall (uncalibrated): "
        f"setup_s {statistics.median(r for r, _ in setups):.3f}, "
        f"qps {phase.raw_qps:.3f}, "
        f"p50_ms {_median_ms(samples, raw=True):.3f}, "
        f"tail_ms {tail([s.latency_s * 1000 for s in samples])[0]:.3f}")
    outcome.notes.append(_ref_note(phase.readings))
    outcome.notes.append(
        f"setup_s over {len(setups)} set-ups: "
        + ", ".join(f"{c:.3f}" for _, c in setups))
    outcome.notes.append(
        f"tail_ms is p{tail_pct:.1f} of {count} operations "
        f"({TAIL_BEYOND} beyond it)")
    outcome.notes.append(
        f"error_share: {outcome.failed / count:.4f} "
        f"({outcome.failed} of {count})")
    for kind in workload.kinds:
        of_kind = [s for s in samples if s.kind == kind]
        if of_kind:
            outcome.notes.append(
                f"p50_ms.{kind}: {_median_ms(of_kind):.3f} ms "
                f"(raw {_median_ms(of_kind, raw=True):.3f}; "
                f"{len(of_kind)} operations)")
    return outcome


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _registry_sum(testbed: Testbed, name: str) -> float:
    series = testbed.federation.metrics.snapshot().get(name) or {}
    return sum(series.values()) if isinstance(series, dict) else series


def _counters(testbed: Testbed) -> dict[str, float]:
    """Cumulative per-layer counters the program keeps itself."""
    planner = testbed.federation.planner.snapshot()
    out = {"plan_cache_hits": planner["cache_hits"],
           "plans_enumerated": planner["plans_enumerated"]}
    out["pool_hits"], out["pool_misses"], out["pool_evictions"] = (
        _pool_totals(testbed))
    engine = testbed.engine
    cache = engine.cache.snapshot() if engine and engine.cache else {}
    batch = engine.batcher.snapshot() if engine and engine.batcher else {}
    out["cache_hits"] = cache.get("hits", 0)
    out["cache_misses"] = cache.get("misses", 0)
    out["cache_invalidations"] = cache.get("invalidations", 0)
    out["batch_round_trips"] = batch.get("round_trips", 0)
    out["batch_coalesced"] = batch.get("coalesced", 0)
    for key, name in (("shard_calls", "scatter_shard_serves_total"),
                      ("shards_skipped", "scatter_shards_skipped_total"),
                      ("failovers", "scatter_failovers_total"),
                      ("retries", "scatter_retries_total")):
        out[key] = _registry_sum(testbed, name)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_breakdown(tracer: Tracer, samples: list[Sample]
                    ) -> tuple[dict[str, float], dict[str, dict[str, float]],
                               list[tuple[float, float]]]:
    """Calibrated per-op self times (ms), overall and per operation
    type, plus each operation's raw ``(wall, self + unattributed)``
    pair in seconds."""
    by_op = tracer.spans_by_op()
    totals: dict[str, float] = {}
    by_kind: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    balance = []
    for sample in samples:
        root = sample.root
        self_s, unattributed = attribute(root, by_op.get(root.op, []))
        self_s[UNATTRIBUTED] = unattributed
        balance.append((root.end - root.start, sum(self_s.values())))
        kind_totals = by_kind.setdefault(sample.kind, {})
        counts[sample.kind] = counts.get(sample.kind, 0) + 1
        scale = sample.calibrated_s / sample.latency_s
        for layer, seconds in self_s.items():
            calibrated = seconds * scale
            totals[layer] = totals.get(layer, 0.0) + calibrated
            kind_totals[layer] = kind_totals.get(layer, 0.0) + calibrated
    n = len(samples)
    per_op = {layer: total * 1000 / n for layer, total in totals.items()}
    per_kind = {kind: {layer: total * 1000 / counts[kind]
                       for layer, total in kind_totals.items()}
                for kind, kind_totals in by_kind.items()}
    return per_op, per_kind, balance


def run_traced(workload: Workload, seconds: float, workdir: Path,
               spans_path: Path | None = None) -> Outcome:
    outcome = Outcome(workload.name, trace=True)
    oracle = workload.oracle()
    tracer = Tracer()
    tracer.install()
    replaced = list(tracer.patched)
    try:
        testbed, _ = _set_up_repeatedly(workload, workdir, oracle,
                                        TRACE_SETUPS, outcome, tracer)
    finally:
        tracer.uninstall()
    tracer.reset()
    try:
        gc.collect()
        plain = drive(testbed, workload.streams(), seconds / 2, oracle)
        before = _counters(testbed)
        tracer.install()
        try:
            traced = drive(testbed, workload.streams(), seconds / 2,
                           oracle, tracer)
        finally:
            tracer.uninstall()
        after = _counters(testbed)
    finally:
        testbed.close()
    leftover = [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, original in replaced
                if vars(owner).get(name) is not original]
    if leftover:
        outcome.problems.append(f"wrappers not removed: {leftover}")
    _account(outcome, plain.samples, "untraced phase")
    _account(outcome, traced.samples, "traced phase")
    outcome.attempted = len(plain.samples) + len(traced.samples)
    outcome.failed = sum(not s.ok for s in plain.samples + traced.samples)

    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    samples = traced.samples
    per_op, per_kind, balance = layer_breakdown(tracer, samples)
    for layer, ms in per_op.items():
        values[_self_metric(layer)] = ms
    for kind, layers in per_kind.items():
        if kind not in STRATEGIES:
            continue
        for layer, ms in layers.items():
            if layer != QUEUE_WAIT:
                values[f"{_self_metric(layer)}.{kind}"] = ms
    n = len(samples)
    spans = tracer.spans
    parses = [s for s in spans if s.name == "xmldb.parse"]
    encodes = [s for s in spans if s.name == "xrpc.encode"]
    plans = sum(s.name == "planner.plan" for s in spans)
    delta = {key: after[key] - before[key] for key in after}
    values.update({
        "xmldb.parse.calls": len(parses) / n,
        "xmldb.parse.bytes": sum(s.nbytes for s in parses) / n,
        "xmldb.pool.hit_ratio": _ratio(
            delta["pool_hits"], delta["pool_hits"] + delta["pool_misses"]),
        "xmldb.pool.misses": delta["pool_misses"] / n,
        "xmldb.pool.evictions": delta["pool_evictions"] / n,
        "xrpc.messages": len(encodes) / n,
        "xrpc.message_bytes": sum(s.nbytes for s in encodes) / n,
        "planner.plan_cache.hit_ratio": _ratio(delta["plan_cache_hits"],
                                               plans),
        "planner.plans_enumerated": delta["plans_enumerated"] / n,
        "runtime.cache.hit_ratio": _ratio(
            delta["cache_hits"],
            delta["cache_hits"] + delta["cache_misses"]),
        "runtime.cache.invalidations": delta["cache_invalidations"] / n,
        "runtime.batch.merge_rate": _ratio(delta["batch_coalesced"],
                                           delta["batch_round_trips"]),
        "cluster.shard_calls": delta["shard_calls"] / n,
        "cluster.shards_skipped": delta["shards_skipped"] / n,
        "cluster.failovers": delta["failovers"] / n,
        "cluster.retries": delta["retries"] / n,
        "net.sim_ms": sum(s.sim_s for s in samples) * 1000 / n,
        "net.rpc_calls": sum(s.rpc_calls for s in samples) / n,
        "obs.trace_overhead": _ratio(traced.qps, plain.qps),
        "machine.ref_ms": statistics.median(traced.readings),
    })
    for kind in STRATEGIES:
        of_kind = [s for s in samples if s.kind == kind]
        if of_kind:
            values[f"net.sim_ms.{kind}"] = (
                sum(s.sim_s for s in of_kind) * 1000 / len(of_kind))
    for kind in OP_KINDS:
        of_kind = [s for s in plain.samples if s.kind == kind]
        if of_kind:
            values[f"p50_ms.{kind}"] = _median_ms(of_kind)
    outcome.metrics = {name: (values[name], unit)
                       for name, unit in units.items()}

    worst = max(abs(wall - covered) for wall, covered in balance)
    outcome.notes.append(
        f"self times + system.unattributed_ms match each operation's wall "
        f"time within {worst * 1e6:.3f} us ({len(balance)} operations)")
    outcome.notes.append(
        f"traced {n} operations in {traced.raw_s:.2f} s, untraced "
        f"{len(plain.samples)} in {plain.raw_s:.2f} s (raw wall)")
    outcome.notes.append(_ref_note(traced.readings))
    if spans_path is not None:
        tracer.write(spans_path)
        outcome.notes.append(f"spans written to {spans_path}")
    return outcome
