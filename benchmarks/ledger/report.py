"""Read ledger files: the per-layer share table and the A/B comparison."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.ledger.layers import BACKENDS, KERNELS

#: fingerprint fields that must agree before two ledgers are compared
#: (the commit is what a comparison is usually about)
_MUST_MATCH = ("host", "kernel_tier", "nproc", "python", "numpy", "blas_threads", "seed")

#: stages whose self-times add up to the attributed part of an op
_STAGES = (
    ("circuits.build", "circuits.build_s_per_op"),
    ("plan (cutter + router)", "plan.s_per_op"),
    ("plan.estimate", "plan.estimate_s_per_op"),
    ("evaluate", "evaluate.s_per_op"),
    ("tomography", "tomography.s_per_op"),
    ("reconstruct", "reconstruct.s_per_op"),
)


def report(path: Path) -> int:
    """Where an op's time goes, per workload, from the traced run."""
    ledger = json.loads(path.read_text())
    print(f"{path}  (seed {ledger['fingerprint']['seed']}, {ledger['fingerprint']['host']})")
    for name, entry in ledger["workloads"].items():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        attributed = sum(layer[key] for _label, key in _STAGES)
        unattributed = layer["op.unattributed_share"]
        op_s = attributed / (1.0 - unattributed) if unattributed < 1.0 else 0.0
        rows = [(label, layer[key]) for label, key in _STAGES]
        inside = [("evaluate: overhead (jobs, keys, cache, dispatch)", layer["evaluate.overhead_s_per_op"])]
        inside += [(f"evaluate: backend {b}", layer[f"backend.{b}.s_per_op"]) for b in BACKENDS]
        inside += [(f"kernel {k}", layer[f"kernel.{k}.s_per_op"]) for k in KERNELS]
        print(f"\n== {name}: traced op {op_s * 1e3:.2f} ms "
              f"(tracing overhead {layer['trace.overhead_share']:+.1%})")
        print(f"  {'layer':<50} {'ms/op':>10} {'share':>7}")
        for label, seconds in rows:
            print(f"  {label:<50} {seconds * 1e3:>10.3f} {_share(seconds, op_s):>7}")
        print(f"  {'unattributed':<50} {unattributed * op_s * 1e3:>10.3f} {unattributed:>7.1%}")
        print("  of which (nested inside the rows above; remote work included):")
        for label, seconds in inside:
            if seconds:
                print(f"    {label:<48} {seconds * 1e3:>10.3f} {_share(seconds, op_s):>7}")
        if layer["service.local_op_s_p50"]:
            print(f"  service: local p50 {layer['service.local_op_s_p50'] * 1e3:.2f} ms, "
                  f"overhead share {layer['service.overhead_share']:.1%}, "
                  f"worker busy share {layer['worker.busy_share']:.1%}")
    return 0


def _share(seconds: float, op_s: float) -> str:
    return f"{seconds / op_s:.1%}" if op_s else "-"


def _spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the quartile distance
    with four runs or more, the range with two or three."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle
    return (max(values) - min(values)) / middle


def compare(path_a: Path, path_b: Path, manifest: dict) -> int:
    """B against A: per workload and end-to-end metric, both values, the
    ratio with its base, the bound, and ok / regressed / unresolved."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    differing = [
        f"{key}: {a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r}"
        for key in _MUST_MATCH
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    if a.get("seconds") != b.get("seconds") or a.get("smoke") != b.get("smoke"):
        differing.append(f"run length: {a.get('seconds')} vs {b.get('seconds')}")
    if differing:
        print("refusing to compare ledgers measured under different conditions:")
        for line in differing:
            print(f"  {line}")
        return 2
    print(f"A = {path_a} (commit {a['fingerprint']['commit'][:12]})")
    print(f"B = {path_b} (commit {b['fingerprint']['commit'][:12]})")
    print(f"{'workload':<18} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
    worst = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in manifest["end_to_end"]:
            ca, cb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            va, vb, bound = ca["value"], cb["value"], metric["bound"]
            ratio = vb / va
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spreads = [s for s in (_spread(ca.get("runs", [])), _spread(cb.get("runs", []))) if s is not None]
            if any(s > bound for s in spreads):
                verdict = f"unresolved (spread {max(spreads):.0%} > bound)"
                worst = max(worst, 1)
            elif worse > bound:
                verdict = "regressed"
                worst = max(worst, 3)
            else:
                verdict = "ok" if spreads else "ok (1 run each: spread unknown)"
            print(f"{name:<18} {metric['name']:<18} {va:>12.5g} {vb:>12.5g} "
                  f"{ratio:>7.3f}x {bound:>6.0%}  {verdict}")
        fa, fb = wa["per_layer"]["fidelity_min"]["value"], wb["per_layer"]["fidelity_min"]["value"]
        fidelity_ok = fb >= fa - 0.005
        print(f"{name:<18} {'fidelity_min':<18} {fa:>12.6f} {fb:>12.6f} {'':>8} {'0.005':>6}  "
              f"{'ok' if fidelity_ok else 'regressed'}")
        failures_ok = wb["failed_share"] <= wa["failed_share"]
        print(f"{name:<18} {'failed_share':<18} {wa['failed_share']:>12.4f} {wb['failed_share']:>12.4f} "
              f"{'':>8} {'0':>6}  {'ok' if failures_ok else 'regressed'}")
        if not (fidelity_ok and failures_ok):
            worst = 3
    print("ratios are B over A (base: A); bounds come from BENCHMARK.json")
    return worst
