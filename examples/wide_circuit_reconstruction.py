"""Wide-circuit reconstruction: bounded-memory recombination at 61 qubits.

A 61-qubit GHZ chain with one non-Clifford rotation is trivially cheap to
*simulate* fragment-by-fragment, but its full output distribution spans
``2^61`` bins — the dense recombination accumulator alone would need
18 exabytes.  This example shows the three bounded-memory ways out:

1. ``mode="recursive"`` (auto-selected past ``max_dense_bits``): the
   dynamic-definition driver reconstructs a coarse top window, recurses
   into the heaviest bins, and returns a calibrated top-k distribution.
   Every Clifford fragment is read on its support at every level, the
   top window included, so a contraction holds a handful of entries
   here; ``O(4^k * 2^qubit_limit)`` bounds it;
2. ``marginal_probabilities`` — exact marginals over small qubit windows
   straight from reduced fragment tensors, never touching the joint;
3. the guard: asking for the dense joint raises a clear
   ``ReconstructionMemoryError`` instead of freezing in an allocation.

Run:  python examples/wide_circuit_reconstruction.py
"""

import numpy as np

from repro.circuits import Circuit, gates
from repro.core import ReconstructionConfig, ReconstructionMemoryError, SuperSim


def wide_chain(n: int) -> Circuit:
    """GHZ chain with one XPow(1/4): 4-outcome support at any width."""
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), n // 2)
    return circuit


def main() -> None:
    n = 61
    circuit = wide_chain(n)
    print(f"circuit: {circuit}  ({2**n:.2e} joint output bins)")

    # --- the guard: dense mode refuses wide outputs loudly -------------------
    dense_sim = SuperSim(reconstruction=ReconstructionConfig(mode="full"))
    try:
        dense_sim.run(circuit)
    except ReconstructionMemoryError as exc:
        print(f"\ndense mode refused (as it should):\n  {exc}")

    # --- recursive dynamic definition: calibrated top-k, bounded memory ------
    sim = SuperSim(
        reconstruction=ReconstructionConfig(qubit_limit=16, top_k=16)
    )
    result = sim.run(circuit)  # mode="auto" picks recursive past 26 bits
    print(f"\nmode: {result.reconstruction_mode} (auto-selected), "
          f"{result.reconstruction_windows} windows / "
          f"{result.reconstruction_refinements} refinements")
    print(f"peak accumulator: {result.stats.peak_window_entries} entries "
          f"(the product of the supports: at most 2^qubit_limit, "
          f"vs 2^{n} dense)")
    print(f"probability mass covered by the beam: "
          f"{result.covered_probability:.12f}")
    print("top outcomes:")
    for outcome, p in sorted(result.distribution, key=lambda kv: -kv[1])[:4]:
        print(f"  |{outcome:0{n}b}>  p = {p:.6f}")

    # --- exact marginals without the joint ------------------------------------
    mid = n // 2
    single, pair = sim.marginal_probabilities(circuit, [[mid], [0, mid]])
    print(f"\nP(q{mid}=1) = {single[1]:.6f}  (exact: 0.5)")
    flip = np.sin(np.pi / 8) ** 2  # XPow(1/4) flip probability
    print(f"P(q0=0, q{mid}=1) = {pair[0b01]:.6f}  "
          f"(exact sin^2(pi/8)/2 = {flip / 2:.6f})")

    # --- cost model knows all of this up front --------------------------------
    estimate = sim.plan(circuit).estimate()
    print(f"\nestimate: {estimate.num_cuts} cuts, "
          f"reconstruction cost ~{estimate.reconstruction_cost:.3g} "
          f"of total ~{estimate.total_cost:.3g}")


if __name__ == "__main__":
    main()
