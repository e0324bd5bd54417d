"""Stabilizer (Clifford) simulation: backward walk, noise, frames, facade."""

from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel, PauliChannel
from repro.stabilizer.simulator import StabilizerSimulator
from repro.stabilizer.tableau import AffineOutcomeDistribution

__all__ = [
    "AffineOutcomeDistribution",
    "StabilizerSimulator",
    "PauliChannel",
    "NoiseModel",
    "FrameSampler",
]
