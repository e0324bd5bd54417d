"""One run of one workload in this process.

``--trace 0``: set up (starting the system several times, for a steady
``setup_s``), measure for ``--seconds`` with tracing off, check outputs,
report the end-to-end metrics.  ``--trace 1``: measure a short untraced
phase, install the spans, measure a traced phase, check outputs, report
the per-layer metrics; the two phases' medians give the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from benchmarks.ledger import layers
from benchmarks.ledger.spans import Tracer
from benchmarks.ledger.workloads import FULL, OUT_DIR, WORKLOADS, Scale

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: share of ``--seconds`` a traced run spends untraced, as its own baseline
UNTRACED_SHARE = 0.4


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _emit(values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.

    A per-layer metric a workload has no part in (service metrics of a
    local workload, a backend the router never picked) reads 0."""
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def _end_to_end(measured, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The declared end-to-end metrics, and the raw seconds behind the
    host-speed-normalised ones (see ``refclock``)."""
    ops = len(measured.op_s)
    raw = {
        "op_s_p50": statistics.median(measured.op_s),
        "ops_per_s": ops / measured.wall_s,
        "cpu_s_per_op": measured.cpu_s / ops,
        "norm_factor": measured.norm,
    }
    values = {
        "setup_s": setup_s,
        "op_s_p50_norm": raw["op_s_p50"] * measured.norm,
        "ops_per_s_norm": raw["ops_per_s"] / measured.norm,
        "cpu_s_per_op_norm": raw["cpu_s_per_op"] * measured.norm,
        "peak_rss_mb": peak_rss_mb,
    }
    return _emit(values, load_manifest()["end_to_end"]), raw


def _result(measurements, verdict, metrics: dict) -> dict:
    failed = sum(m.failed for m in measurements) + verdict.failed
    attempted = sum(len(m.op_s) + m.failed for m in measurements)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": verdict.notes[:20],
    }


def _set_up(workload, starts: int) -> float:
    """Prepare once, start ``starts`` times; returns ``setup_s``: the
    preparation plus the median start (process spawns and warm-up ops are
    the part that varies from one attempt to the next)."""
    begin = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - begin
    start_s = []
    for attempt in range(starts):
        if attempt:
            workload.stop()
        begin = time.perf_counter()
        workload.start()
        start_s.append(time.perf_counter() - begin)
    return prepare_s + statistics.median(start_s)


def run_untraced(name: str, seed: int, seconds: float, scale: Scale, starts: int) -> dict:
    workload = WORKLOADS[name](seed, scale, Tracer())
    try:
        setup_s = _set_up(workload, starts)
        tree = workload.tree()
        tree.reset_peak()
        measured = workload.measure(seconds)
        peak = tree.peak_rss_mb()
        verdict = workload.verify(measured.outputs)
    finally:
        workload.stop()
    metrics, raw = _end_to_end(measured, setup_s, peak)
    result = _result([measured], verdict, metrics)
    result["raw"] = raw
    return result


def _probes(workload, actual_s_per_op: float) -> dict:
    """Numbers the ops themselves cannot show: what ``estimate()`` predicts
    for one op under freshly measured cost scales, and the cost of an
    all-hit ``evaluate_all`` (the cache's read path)."""
    from repro.backends import BackendRouter, measure_cost_scales
    from repro.core import ExecutionConfig, SuperSim
    from repro.core.evaluator import FragmentEvaluator

    circuit, sampling, reconstruction, keep = workload.probe_case()
    router = BackendRouter(cost_scales=measure_cost_scales(cache_path=None))
    priced = SuperSim(
        sampling=sampling,
        reconstruction=reconstruction,
        execution=ExecutionConfig(router=router),
    )
    predicted = priced.plan(circuit, keep_qubits=keep).estimate().total_cost

    sim = SuperSim(sampling=sampling)
    fragments = sim.cut(circuit).fragments

    def evaluator():
        # a fresh evaluator per call, as SuperSim builds one per run: the
        # same seed then derives the same job keys, so the second call hits
        return FragmentEvaluator.from_configs(
            sim.sampling, sim.execution, cache=sim.variant_cache
        )

    evaluator().evaluate_all(fragments)
    warm = evaluator()
    start = time.perf_counter()
    warm.evaluate_all(fragments)
    warm_s = time.perf_counter() - start
    if warm.last_stats["cache_misses"]:
        raise RuntimeError("warm evaluate_all missed the cache")
    return {
        "plan.predicted_over_actual": predicted / actual_s_per_op,
        "evaluate.warm_s_per_op": warm_s,
    }


def run_traced(name: str, seed: int, seconds: float, scale: Scale) -> dict:
    from repro import kernels

    tracer = Tracer()
    workload = WORKLOADS[name](seed, scale, tracer)
    try:
        setup_s = _set_up(workload, 1)
        tree = workload.tree()
        tree.reset_peak()
        baseline = workload.measure(seconds * UNTRACED_SHARE)
        peak = tree.peak_rss_mb()
        workload.start_tracing()
        layers.install_pipeline(tracer)
        layers.install_backends(tracer)
        before = kernels.counters_snapshot()
        tracer.enabled = True
        traced = workload.measure(
            seconds * (1.0 - UNTRACED_SHARE), first_op=len(baseline.op_s)
        )
        tracer.enabled = False
        after = kernels.counters_snapshot()
        verdict = workload.verify(baseline.outputs + traced.outputs)
        values = workload.extra_metrics(traced)
        remote_kernels, remote_backends = workload.remote_work()
    finally:
        workload.stop()
        tracer.unwrap_all()
    kernel_deltas = {}
    for kernel, (calls, busy) in after.items():
        calls0, busy0 = before.get(kernel, (0, 0.0))
        more_calls, more_busy = remote_kernels.get(kernel, (0, 0.0))
        kernel_deltas[kernel] = (calls - calls0 + more_calls, busy - busy0 + more_busy)
    ops = len(traced.op_s)
    values.update(layers.aggregate(tracer, ops, kernel_deltas, remote_backends))
    values.update(
        _probes(workload, values["evaluate.s_per_op"] + values["reconstruct.s_per_op"])
    )
    values["trace.overhead_share"] = (
        statistics.median(traced.op_s) * traced.norm
        / (statistics.median(baseline.op_s) * baseline.norm)
        - 1.0
    )
    workload.ref.tick()  # service_sweep takes none of its own
    values["host.ref_kernel_s"] = statistics.median(workload.ref.ticks)
    values["fidelity_min"] = verdict.fidelity_min
    tracer.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
    result = _result(
        [baseline, traced], verdict, _emit(values, load_manifest()["per_layer"])
    )
    # the untraced phase is a (short) end-to-end run of its own; the smoke
    # ledger reads it from here instead of paying for a second process
    result["end_to_end"], result["raw"] = _end_to_end(baseline, setup_s, peak)
    return result


def run(name, seed, seconds, trace, scale: Scale = FULL, starts: int = 3) -> dict:
    if trace:
        return run_traced(name, seed, seconds, scale)
    return run_untraced(name, seed, seconds, scale, starts)
