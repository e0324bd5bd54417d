"""Benchmark applications from the paper's §IV.

* :mod:`repro.apps.hwea` — the hardware-efficient VQE ansatz (near-CAFQA);
* :mod:`repro.apps.qaoa` — QAOA for Sherrington–Kirkpatrick MaxCut;
* :mod:`repro.apps.qec` — the phase-flip repetition code (SupermarQ-style);
* :mod:`repro.apps.vqe` — Hamiltonians, Pauli expectations, and the
  CAFQA-style discrete Clifford parameter search;
* :mod:`repro.apps.fingerprint` — SupercheQ-IE incremental fingerprinting.
"""

from repro.apps.hwea import HWEA
from repro.apps.qaoa import (
    clifford_qaoa_circuit,
    maxcut_value,
    qaoa_circuit,
    sk_model,
)
from repro.apps.qec import (
    logical_phase_error_rate,
    phase_flip_repetition_code,
)
from repro.apps.vqe import (
    Hamiltonian,
    cafqa_search,
    pauli_expectation,
    transverse_field_ising,
)
from repro.apps.fingerprint import (
    fingerprint_circuit,
    fingerprints_equal,
    incremental_update,
)
from repro.apps.generative import (
    BornMachine,
    refine_near_clifford,
    train_clifford,
)

__all__ = [
    "HWEA",
    "sk_model",
    "qaoa_circuit",
    "clifford_qaoa_circuit",
    "maxcut_value",
    "phase_flip_repetition_code",
    "logical_phase_error_rate",
    "Hamiltonian",
    "transverse_field_ising",
    "pauli_expectation",
    "cafqa_search",
    "fingerprint_circuit",
    "incremental_update",
    "fingerprints_equal",
    "BornMachine",
    "train_clifford",
    "refine_near_clifford",
]
