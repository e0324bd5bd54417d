"""SuperSim: Clifford-based circuit cutting (the paper's contribution).

Pipeline (paper §V):

1. :mod:`repro.core.cutter` — find cut locations that isolate non-Clifford
   operations and split the circuit into fragments;
2. :mod:`repro.core.evaluator` — evaluate every fragment *variant*
   (choices of prepared states at quantum inputs and measurement bases at
   quantum outputs); each fragment is routed to the cheapest capable
   backend from the :mod:`repro.backends` registry (stabilizer tableau for
   Clifford fragments, statevector for narrow non-Clifford ones, MPS /
   extended stabilizer / CH form where their cost models win), with the
   flattened fragment x variant job list deduplicated through a
   content-addressed variant cache and executed one job at a time (or,
   through :mod:`repro.service`, on a worker fleet);
3. :mod:`repro.core.reconstruction` — recombine fragment tensors over the
   ``4^k`` Pauli assignments of the ``k`` cuts to build the output
   distribution of the original circuit.

The user-facing entry point is :class:`repro.core.supersim.SuperSim`,
whose staged API mirrors the pipeline: ``plan()`` performs steps 1 and the
routing half of 2 without simulating anything, returning a frozen
:class:`~repro.core.plan.ExecutionPlan` that can be inspected, priced
(``estimate()``), overridden (``with_cuts`` / ``with_backend``) and then
``execute()``-d; ``run()`` is the one-shot composition, and ``sweep()`` /
``run_many()`` batch many points over a shared variant cache.
Configuration travels in the typed objects of :mod:`repro.core.config`.
"""

from repro.core.config import (
    CutConfig,
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
)
from repro.core.cutter import Cut, CutStrategy, cut_circuit, find_cuts, plan_cuts
from repro.core.fragments import CutCircuit, Fragment
from repro.core.plan import CostEstimate, ExecutionPlan, FragmentPlan, SweepResult
from repro.core.supersim import SuperSim, SuperSimResult
from repro.errors import (
    BackendExecutionError,
    FaultEvent,
    FaultReport,
    JobTimeoutError,
    ReconstructionMemoryError,
    ReproError,
    WorkerCrashError,
)

__all__ = [
    "Cut",
    "CutStrategy",
    "CutConfig",
    "SamplingConfig",
    "ExecutionConfig",
    "ReconstructionConfig",
    "ReconstructionMemoryError",
    "find_cuts",
    "plan_cuts",
    "cut_circuit",
    "Fragment",
    "CutCircuit",
    "SuperSim",
    "SuperSimResult",
    "ExecutionPlan",
    "CostEstimate",
    "FragmentPlan",
    "SweepResult",
    "ReproError",
    "BackendExecutionError",
    "JobTimeoutError",
    "WorkerCrashError",
    "FaultEvent",
    "FaultReport",
]
