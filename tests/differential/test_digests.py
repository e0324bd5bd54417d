"""Committed bit-level digests of seeded integer outputs.

Every entry of ``digests.json`` is the SHA-256 of integer data only —
tableau bits, affine outcome forms, packed shot words, frame-sampler
bits — so no BLAS or SIMD difference between hosts can move it.  A change
that is meant to keep outputs byte-identical must leave every digest
alone; a change that moves a seeded output on purpose re-records them
(``PYTHONPATH=src python tests/differential/test_digests.py --record``)
and says so.

What is digested:

* for each Clifford fragment of four circuits (the ledger's
  ``hwea200_cold``, ``hwea_sweep`` and ``wide61_recursive`` circuits at
  their smoke-test sizes, and the 10-qubit ``service_sweep`` circuit):
  the images of its body's backward walk (the ``PauliMap``'s ``x``, ``z``
  and ``sign``) and every variant's ``(A, b)``, each variant spelled out
  and swept from scratch (the per-variant route, the map's oracle);
* the shot words of every Clifford variant of the 200-qubit
  ``hwea200_cold`` circuit at 5000 shots, seed 0, drawn from its exact
  affine form with the seed a sampled job of that variant would carry —
  ``(root seed, variant fingerprint)`` (the engine itself evaluates these
  fragments exactly, one job each; the non-Clifford fragment's words come
  from float probabilities and are left out);
* ``FrameSampler`` bits of the distance-5 phase-flip repetition code at
  ``p = 0.05``, ``rng = 0``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.hwea import HWEA
from repro.apps.qec import phase_flip_repetition_code
from repro.circuits import Circuit, gates
from repro.backends.cache import circuit_fingerprint
from repro.core import SuperSim
from repro.core.variants import all_variants, variant_circuit
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel, PauliChannel

DIGESTS = Path(__file__).with_name("digests.json")


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


# -- circuits (the ledger's generators, at fixed seeds) -----------------------


def _hwea_cold(n: int, seed: int = 0) -> Circuit:
    rng = np.random.default_rng(seed)
    ansatz = HWEA(n, 5)
    while True:
        circuit = ansatz.near_clifford_instance(num_t=1, rng=rng).measure_all()
        if SuperSim().plan(circuit).num_cuts == 2:
            return circuit


def _hwea_sweep_point(n: int, seed: int = 0) -> Circuit:
    rng = np.random.default_rng(seed)
    ansatz = HWEA(n, 5)
    params = rng.integers(0, 4, size=ansatz.num_parameters) * 0.5
    qubit = int(rng.integers(6, n - 6))
    layer = int(rng.integers(1, 4))
    params[layer * 4 * n + 2 * qubit] = 0.3
    return ansatz.circuit(params).measure_all()


def _chain(n: int, seed: int = 0) -> Circuit:
    rng = np.random.default_rng(seed)
    middle = n // 2
    positions = (
        middle - 1 - int(rng.integers(0, 5)),
        middle + 1 + int(rng.integers(0, 5)),
    )
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    for q in positions:
        circuit.append(gates.XPow(0.25), q)
    for q in range(0, n - 1, 2):
        circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _service_circuit(theta: float = 0.1) -> Circuit:
    n = 10
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.ZPow(theta), n // 2)
    for q in range(n - 1, 0, -1):
        circuit.append(gates.CX, q - 1, q)
    return circuit.append(gates.H, 0).measure_all()


FRAGMENT_CIRCUITS = {
    "hwea200_cold@50": lambda: _hwea_cold(50),
    "hwea_sweep@50": lambda: _hwea_sweep_point(50),
    "wide61_recursive@31": lambda: _chain(31),
    "service_sweep@10": _service_circuit,
}


# -- digests --------------------------------------------------------------------


def fragment_digests(circuit: Circuit) -> dict[str, str]:
    """``frag<i>.walk`` and ``frag<i>.variants`` per Clifford fragment."""
    out = {}
    stabilizer = StabilizerSimulator()
    for index, fragment in enumerate(SuperSim().cut(circuit).fragments):
        if not fragment.circuit.is_clifford:
            continue
        images = stabilizer.pauli_map(fragment.circuit, *fragment.cut_wires)
        out[f"frag{index}.walk"] = _digest([images.x, images.z, images.sign])
        variants = [
            stabilizer.affine_distribution(variant_circuit(fragment, *spec))
            for spec in all_variants(fragment)
        ]
        out[f"frag{index}.variants"] = _digest(
            [array for dist in variants for array in (dist.A, dist.b)]
        )
    return out


def cold_shot_words_digest() -> str:
    """Shot words of the Clifford variants of the 200q cold request, in
    fragment order and, within a fragment, in ``(preps, bases)`` order,
    each drawn with the seed a sampled job of that variant would carry."""
    circuit = _hwea_cold(200)
    fragments = SuperSim().cut(circuit).fragments
    # the root seed a seed-0 evaluator draws for its first batch
    root_seed = int(np.random.default_rng(0).integers(2**63))
    stabilizer = StabilizerSimulator()
    words = []
    for fragment in fragments:
        if not fragment.circuit.is_clifford:
            continue
        for preps, bases in all_variants(fragment):
            variant = variant_circuit(fragment, preps, bases)
            seed = (root_seed, int(circuit_fingerprint(variant)[:16], 16))
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            affine = stabilizer.affine_distribution(variant)
            words.append(affine.sample_words(5000, rng))
    return _digest(words)


def frame_bits_digest() -> str:
    p = 0.05
    noise = NoiseModel(
        after_gate_1q=PauliChannel.phase_flip(p),
        after_gate_2q=PauliChannel(2, [(p / 2, "ZI"), (p / 2, "IZ")]),
    )
    sampler = FrameSampler(phase_flip_repetition_code(5), noise)
    return _digest([np.packbits(sampler.sample_bits(2000, 0), axis=1)])


def all_digests() -> dict[str, str]:
    out = {}
    for name, build in FRAGMENT_CIRCUITS.items():
        for key, value in fragment_digests(build()).items():
            out[f"{name}.{key}"] = value
    out["hwea200_cold.shot_words"] = cold_shot_words_digest()
    out["repetition_d5.frame_bits"] = frame_bits_digest()
    return out


# -- tests ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(FRAGMENT_CIRCUITS))
def test_clifford_fragment_digests(name, recorded):
    got = {
        f"{name}.{key}": value
        for key, value in fragment_digests(FRAGMENT_CIRCUITS[name]()).items()
    }
    assert got, f"{name} has no Clifford fragment"
    want = {key: value for key, value in recorded.items() if key.startswith(name + ".")}
    assert got == want


def test_cold_request_shot_words_digest(recorded):
    assert cold_shot_words_digest() == recorded["hwea200_cold.shot_words"]


def test_frame_sampler_digest(recorded):
    assert frame_bits_digest() == recorded["repetition_d5.frame_bits"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_digests.py --record  (rewrites digests.json)")
    DIGESTS.write_text(json.dumps(all_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
