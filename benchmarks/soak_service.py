"""Service soak benchmark: concurrent clients against one coordinator.

Stands up the full service stack (coordinator thread + real worker
subprocesses), then drives it with ``CLIENTS`` concurrent
``ServiceClient`` threads, each running a parameter sweep whose grid
overlaps the other clients' — the millions-of-users posture in
miniature: many tenants, shared work, one cache tier.  Records per-point
latency percentiles (p50/p95/p99), aggregate throughput, and the shared
variant-cache hit rate into ``BENCH_service.json`` at the repository
root (same artifact trajectory as ``BENCH_core.json``).

Usage::

    PYTHONPATH=src python benchmarks/soak_service.py

Environment knobs for longer soaks: ``SOAK_CLIENTS``, ``SOAK_POINTS``,
``SOAK_WORKERS`` (defaults 4 / 6 / 2 keep the CI smoke under a minute).

``SOAK_CHAOS=1`` turns on the chaos-under-load leg: mid-soak one worker
is SIGKILLed and a replacement spawned, measuring how long the fleet
takes to recover (``recovery_seconds``) and how many jobs the
coordinator had to requeue (``jobs_requeued``) — both recorded in
``BENCH_service.json``.  The floors tighten accordingly: the worker
loss must be observed, every point must still complete, and the
determinism floor is unchanged — a kill may move work, never numbers.

Exit code is non-zero when the run violates the floors asserted at the
bottom: every point must complete, results must agree across clients
sweeping the same angle (bit-for-bit determinism is the service's
headline invariant), and the overlapping grids must produce shared-cache
hits.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

from repro.circuits import Circuit, gates
from repro.core import ExecutionConfig, SamplingConfig
from repro.service import Coordinator, ServiceClient

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"
SRC = str(REPO_ROOT / "src")

CLIENTS = int(os.environ.get("SOAK_CLIENTS", "4"))
POINTS = int(os.environ.get("SOAK_POINTS", "6"))
WORKERS = int(os.environ.get("SOAK_WORKERS", "2"))
CHAOS = os.environ.get("SOAK_CHAOS", "0") not in ("", "0")


def make_circuit(theta: float) -> Circuit:
    n = 10
    c = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        c.append(gates.CX, q, q + 1)
    c.append(gates.ZPow(theta), n // 2)
    for q in range(n - 1, 0, -1):
        c.append(gates.CX, q - 1, q)
    c.append(gates.H, 0)
    return c


def spawn_workers(address: str, n: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--connect", address, "--slots", "2", "--name", f"soak-w{i}"],
            env=env,
        )
        for i in range(n)
    ]


def client_sweep(address: str, tenant: str, thetas, latencies, outcomes):
    """One client's sweep; appends (theta, P(0)) and per-point latency."""
    sampling = SamplingConfig(shots=1000, seed=29)
    # under chaos a worker dies mid-sweep: ride it out via the fault
    # taxonomy (crash -> requeue) instead of surfacing the crash
    execution = ExecutionConfig(failure_policy="retry") if CHAOS else None
    with ServiceClient(
        address, sampling=sampling, tenant=tenant, execution=execution
    ) as client:
        last = time.perf_counter()
        for point in client.sweep(make_circuit, thetas):
            now = time.perf_counter()
            latencies.append(now - last)
            last = now
            outcomes.append((point.params, point.distribution[0]))


def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


def main() -> int:
    # every client sweeps POINTS angles; half the grid is shared across
    # all clients (the cache-tier payoff), half is client-private
    shared = [round(0.1 + 0.05 * i, 3) for i in range(POINTS // 2)]
    grids = [
        shared + [round(0.5 + 0.01 * (c * POINTS + i), 3)
                  for i in range(POINTS - len(shared))]
        for c in range(CLIENTS)
    ]

    latencies: list[float] = []
    outcomes: list[tuple] = []
    recovery: dict = {}
    with Coordinator() as coordinator:
        workers = spawn_workers(coordinator.address, WORKERS)
        try:
            with ServiceClient(coordinator.address) as probe:
                while len(probe.stats()["workers"]) < WORKERS:
                    time.sleep(0.05)

            def chaos_leg():
                # wait for load, SIGKILL one worker mid-soak, spawn a
                # replacement, and time the fleet's return to strength
                deadline = time.monotonic() + 60
                while not outcomes and time.monotonic() < deadline:
                    time.sleep(0.02)
                victim = workers[0]
                killed_at = time.perf_counter()
                victim.kill()
                victim.wait(timeout=10)
                workers.extend(
                    spawn_workers(coordinator.address, 1)
                )
                with ServiceClient(coordinator.address) as watcher:
                    deadline = time.monotonic() + 60
                    while time.monotonic() < deadline:
                        live = watcher.stats()["workers"]
                        if len(live) >= WORKERS:
                            break
                        time.sleep(0.05)
                recovery["recovery_seconds"] = (
                    time.perf_counter() - killed_at
                )

            start = time.perf_counter()
            threads = [
                threading.Thread(
                    target=client_sweep,
                    args=(coordinator.address, f"tenant-{c}", grids[c],
                          latencies, outcomes),
                )
                for c in range(CLIENTS)
            ]
            if CHAOS:
                threads.append(threading.Thread(target=chaos_leg))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            with ServiceClient(coordinator.address) as probe:
                stats = probe.stats()
        finally:
            coordinator.shutdown()
            for worker in workers:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait(timeout=10)

    total_points = CLIENTS * POINTS
    cache = stats.get("cache") or {}
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    ordered = sorted(latencies)
    results = {
        "clients": CLIENTS,
        "points_per_client": POINTS,
        "workers": WORKERS,
        "elapsed_seconds": elapsed,
        "points_completed": len(outcomes),
        "throughput_points_per_second": len(outcomes) / elapsed,
        "latency_p50_seconds": percentile(ordered, 0.50),
        "latency_p95_seconds": percentile(ordered, 0.95),
        "latency_p99_seconds": percentile(ordered, 0.99),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hit_rate,
        "jobs_completed": stats.get("jobs_completed", 0),
        "jobs_dispatched": stats.get("jobs_dispatched", 0),
        "frames_dispatched": stats.get("frames_dispatched", 0),
        "jobs_per_frame": stats.get("jobs_dispatched", 0)
        / max(1, stats.get("frames_dispatched", 0)),
        "workers_lost": stats.get("workers_lost", 0),
        "chaos": CHAOS,
        "jobs_requeued": stats.get("jobs_requeued", 0),
        "heartbeat_deaths": stats.get("heartbeat_deaths", 0),
        "recovery_seconds": recovery.get("recovery_seconds"),
    }

    # CI may be interrupted mid-write: stage to a tmp file and os.replace
    tmp = OUTPUT.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(results, indent=2) + "\n")
    os.replace(tmp, OUTPUT)
    print(json.dumps(results, indent=2))

    failures = []
    if len(outcomes) != total_points:
        failures.append(
            f"only {len(outcomes)}/{total_points} sweep points completed"
        )
    # determinism across tenants: every client swept the shared angles
    # with the same seed, so their probabilities must agree exactly
    by_theta: dict = {}
    for theta, p0 in outcomes:
        if theta in shared:
            by_theta.setdefault(theta, set()).add(p0)
    for theta, values in by_theta.items():
        if len(values) != 1:
            failures.append(
                f"clients disagree on theta={theta}: {sorted(values)}"
            )
    if shared and hits == 0:
        failures.append("overlapping grids produced zero shared-cache hits")
    if CHAOS:
        # the kill must have been observed and survived
        if not stats.get("workers_lost", 0):
            failures.append("chaos leg ran but no worker loss was recorded")
        if recovery.get("recovery_seconds") is None:
            failures.append("fleet never returned to full strength")
    elif stats.get("workers_lost", 0):
        failures.append(f"lost {stats['workers_lost']} workers during soak")

    if failures:
        print("SOAK FLOOR FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    mean = statistics.fmean(ordered) if ordered else 0.0
    print(
        f"soak ok: {len(outcomes)} points from {CLIENTS} clients in "
        f"{elapsed:.2f}s ({results['throughput_points_per_second']:.1f}/s, "
        f"mean latency {mean * 1e3:.1f}ms, cache hit rate {hit_rate:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
