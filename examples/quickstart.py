"""Quickstart: the staged plan→execute pipeline on a near-Clifford circuit.

Builds a 12-qubit GHZ-style Clifford circuit, injects one T gate in the
middle, then walks the pipeline explicitly:

1. ``plan()``   — cut the circuit and route every fragment (no simulation);
2. ``estimate()`` — price the plan as a zero-simulation dry run;
3. ``execute()`` — evaluate fragment variants, reconstruct, validate
   against exact statevector simulation;
4. run again — the variant cache turns the repeat into dictionary lookups;
5. a windows readout — marginals over a few qubit windows, the same plan →
   execute path with its own faults and stage timings.

Run:  python examples/quickstart.py
"""

from repro.analysis import hellinger_fidelity
from repro.circuits import Circuit, gates, inject_t_gates
from repro.core import ExecutionConfig, Readout, SamplingConfig, SuperSim
from repro.statevector import StatevectorSimulator
from repro.testing import ChaosSchedule


def main() -> None:
    n = 12
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    for q in range(0, n, 2):
        circuit.append(gates.S, q)
    circuit = inject_t_gates(circuit, count=1, rng=7)
    print(f"circuit: {circuit}")
    print(f"non-Clifford gates: {circuit.num_non_clifford}")

    # --- stage 1: plan — cut placement + backend routing, zero simulation ---
    sim = SuperSim()  # exact fragment evaluation
    plan = sim.plan(circuit)
    print(f"\ncuts: {plan.num_cuts}  fragments: {plan.num_fragments} "
          f"(sizes {[f.n_qubits for f in plan.cut_circuit.fragments]})")

    # --- stage 2: estimate — dry-run pricing before paying anything ---------
    estimate = plan.estimate()
    for fragment_plan in estimate.fragments:
        print(f"  {fragment_plan}")
    print(f"predicted: {estimate.num_variants} variants "
          f"in {estimate.unique_variants} jobs, "
          f"4^{estimate.num_cuts} = {estimate.reconstruction_terms} "
          f"reconstruction terms, model cost ~{estimate.total_cost:.3g}")

    # --- stage 3: execute — evaluate -> tomography -> reconstruct -----------
    result = plan.execute()
    print(f"\njobs simulated per backend: {result.backend_usage}")
    print(f"reconstruction terms pruned as zero: {result.stats.terms_skipped}")
    for stage in ("cut", "evaluate", "tomography", "reconstruct"):
        print(f"  {stage:<12} {result.timings[stage] * 1e3:8.2f} ms")

    # --- stage 4: run again — the variant cache carries over -----------------
    cached_estimate = sim.plan(circuit).estimate()
    print(f"\nre-planning predicts {cached_estimate.cached_variants} of "
          f"{cached_estimate.unique_variants} jobs already cached")
    again = sim.run(circuit)  # run() is just plan().execute()
    print(f"second run: {again.cache_hits} cache hits, "
          f"{again.cache_misses} misses "
          f"(evaluate {again.timings['evaluate'] * 1e3:.2f} ms)")

    # --- stage 5: a readout — what the plan reconstructs ---------------------
    # marginal_probabilities / sparse_probabilities / probability_of are a
    # plan with a windows / sparse / point readout, so each query is priced,
    # timed and fault-reported like run()
    windows = [[0], [5, 6], [10, 11, 2]]
    marginal_plan = sim.plan(circuit, readout=Readout("windows", windows=windows))
    print(f"\nwindows readout priced at the widest window: reconstruction "
          f"~{marginal_plan.estimate().reconstruction_cost:.3g}")
    marginal_result = marginal_plan.execute()
    for window, marginal in zip(windows, marginal_result.marginals):
        probs = {f"{k:0{len(window)}b}": round(v, 4) for k, v in marginal}
        print(f"  marginal over {window}: {probs}")
    print(f"  faults: {marginal_result.faults.summary() or 'none'}")
    print("  timings: " + ", ".join(
        f"{stage} {marginal_result.timings[stage] * 1e3:.2f} ms"
        for stage in ("cut", "evaluate", "tomography", "reconstruct")))

    # --- validate against the dense reference -------------------------------
    reference = StatevectorSimulator().probabilities(circuit)
    fidelity = hellinger_fidelity(reference, result.distribution)
    print(f"\nHellinger fidelity vs statevector: {fidelity:.10f}")

    # --- sampling is array-native end to end --------------------------------
    # Distributions store packed key/probability arrays, so multi-shot
    # sampling is a handful of NumPy kernels: expect hundreds of thousands
    # to millions of shots/second even at hundreds of qubits (the 200q
    # affine-form benchmark in benchmarks/perf_smoke.py runs at ~1M
    # shots/s; BENCH_core.json tracks the current number).
    import time

    shots = 100_000
    start = time.perf_counter()
    counts = result.distribution.sample(shots, rng=0)
    elapsed = time.perf_counter() - start
    print(f"sampled {shots} shots in {elapsed * 1e3:.1f} ms "
          f"(~{shots / elapsed:,.0f} shots/s, {len(counts)} distinct outcomes)")

    print("\ntop outcomes:")
    top = sorted(result.distribution, key=lambda kv: -kv[1])[:4]
    for outcome, p in top:
        print(f"  |{outcome:0{n}b}>  p = {p:.4f}")

    # --- wide circuits: reconstruction memory is bounded, not 2^n ------------
    # Past ReconstructionConfig.max_dense_bits (default 26) the pipeline
    # auto-switches to recursive dynamic definition: a calibrated top-k
    # distribution at O(4^k * 2^qubit_limit) memory, plus exact marginals
    # over small windows via sim.marginal_probabilities(circuit, windows).
    # See examples/wide_circuit_reconstruction.py for a 61-qubit run.

    # --- fault tolerance -----------------------------------------------------
    # ExecutionConfig(failure_policy="retry" | "degrade") makes the engine
    # survive faults instead of aborting: failed variant jobs retry with
    # capped exponential backoff (fingerprint-derived seeds make the retried
    # run bit-for-bit identical to a failure-free one), soft per-job
    # timeouts come from the calibrated cost model (a local run keeps a late
    # result and records it; the service cancels and redispatches), a job
    # that keeps crashing its worker is quarantined as poison, and
    # "degrade" falls back to the next-cheapest capable backend.  Every
    # event lands in result.faults.
    # The deterministic chaos harness (repro.testing.ChaosSchedule) injects
    # faults on demand — here every variant job fails once, then retries:
    chaos = ChaosSchedule(seed=5, exception_rate=1.0, fail_attempts=1)
    sampling = SamplingConfig(shots=2000, seed=11)
    clean = SuperSim(sampling=sampling).run(circuit)
    survived = SuperSim(
        sampling=sampling,
        execution=ExecutionConfig(
            failure_policy="retry", chaos=chaos, retry_backoff=0.0
        ),
    ).run(circuit)
    assert survived.distribution.probs == clean.distribution.probs
    print(f"fault tolerance: {survived.faults.summary()} — "
          f"result bit-identical to the fault-free run")

    # --- running as a service ------------------------------------------------
    # The same pipeline runs as a long-lived shared service (repro.service):
    # an asyncio coordinator prices requests with estimate()-based admission
    # control and fans variant jobs out to worker subprocesses, while
    # ServiceClient mirrors the run/sweep/submit surface bit-for-bit.  The
    # service layer is resilient end to end: the coordinator journals
    # accepted work in SQLite (--journal-db), so a SIGKILLed coordinator's
    # successor recovers pending tickets and re-executes them to identical
    # results; workers are heartbeat-monitored and auto-reconnect; clients
    # retry with idempotency keys that never double-execute or
    # double-charge.  See examples/service_demo.py (including a coordinator
    # kill+restart mid-sweep) and tests/test_service_resilience.py.


if __name__ == "__main__":
    main()
