"""The staged pipeline: an inspectable, overridable ExecutionPlan.

``SuperSim.plan(circuit)`` captures every decision the pipeline would make
— cut placement, the enumerated fragment variants, the per-fragment
backend picked by the router, and a predicted cost from the calibrated
cost models — *before* any simulation happens.  The plan is frozen;
deriving a variation returns a new plan:

* :meth:`ExecutionPlan.estimate` — a zero-simulation dry run: predicted
  cost per fragment and in total, variant counts, reconstruction terms,
  and (in exact mode) how many variants the cache would already satisfy;
* :meth:`ExecutionPlan.with_backend` — pin one fragment to a named
  backend (validated against its capabilities);
* :meth:`ExecutionPlan.with_cuts` — re-plan the same circuit under a
  user-chosen cut set;
* :meth:`ExecutionPlan.execute` — run the evaluate → tomography →
  reconstruct stages and return a
  :class:`~repro.core.supersim.SuperSimResult`.

Batch work streams through :meth:`SuperSim.sweep` / ``run_many``, which
yield :class:`SweepResult` records as each grid point completes while the
variant cache is shared across all points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.backends.base import Backend, CircuitFeatures
from repro.circuits.circuit import Circuit
from repro.core.fragments import CutCircuit


@dataclass(frozen=True)
class FragmentPlan:
    """The planned treatment of one fragment."""

    index: int
    n_qubits: int
    num_variants: int
    backend: str
    mode: str  # "exact" | "sampled" | "noisy"
    is_clifford: bool
    cost: float  # scored per-variant model cost x num_variants

    def __repr__(self) -> str:
        return (
            f"FragmentPlan(#{self.index}: {self.n_qubits}q "
            f"x{self.num_variants} variants -> {self.backend} "
            f"[{self.mode}], cost~{self.cost:.3g})"
        )


@dataclass(frozen=True)
class CostEstimate:
    """A zero-simulation dry run of a plan.

    ``total_cost`` is the sum of scored per-variant backend costs times
    variant counts, **plus** ``reconstruction_cost``; with a calibrated
    router (``BackendRouter(cost_scales=measure_cost_scales(...))``) its
    units are approximately wall-clock seconds on this machine.
    ``reconstruction_cost`` charges the recombination stage by output
    width — ``min(4^k · 2**width, recursive window cost)``, matching the
    engine ``execute()`` would actually pick — so quotes for wide
    circuits no longer pretend the ``2**width`` accumulator is free.
    ``unique_variants`` counts the deduplicated jobs (a noiseless Clifford
    fragment is one job for all its variants) and ``cached_variants`` those
    the shared cache would satisfy without simulating (``None`` when
    prediction is not possible, e.g. no cache attached).
    """

    fragments: tuple[FragmentPlan, ...]
    total_cost: float
    num_variants: int
    unique_variants: int
    cached_variants: int | None
    num_cuts: int
    reconstruction_terms: int
    calibrated: bool
    reconstruction_cost: float = 0.0

    @property
    def backends(self) -> dict[str, int]:
        """Variants planned per backend name."""
        usage: dict[str, int] = {}
        for f in self.fragments:
            usage[f.backend] = usage.get(f.backend, 0) + f.num_variants
        return usage

    def to_dict(self) -> dict:
        """A JSON-serialisable view of this estimate.

        Everything is plain ints/floats/bools/strings — the admission
        controller ships quotes over the wire and benchmark scripts dump
        them into ``BENCH_*.json`` without a custom encoder.
        """
        return {
            "fragments": [
                {
                    "index": f.index,
                    "n_qubits": f.n_qubits,
                    "num_variants": f.num_variants,
                    "backend": f.backend,
                    "mode": f.mode,
                    "is_clifford": f.is_clifford,
                    "cost": f.cost,
                }
                for f in self.fragments
            ],
            "total_cost": self.total_cost,
            "num_variants": self.num_variants,
            "unique_variants": self.unique_variants,
            "cached_variants": self.cached_variants,
            "num_cuts": self.num_cuts,
            "reconstruction_terms": self.reconstruction_terms,
            "calibrated": self.calibrated,
            "reconstruction_cost": self.reconstruction_cost,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostEstimate":
        """Rebuild an estimate from :meth:`to_dict` output."""
        return cls(
            fragments=tuple(
                FragmentPlan(**fragment) for fragment in data["fragments"]
            ),
            total_cost=data["total_cost"],
            num_variants=data["num_variants"],
            unique_variants=data["unique_variants"],
            cached_variants=data["cached_variants"],
            num_cuts=data["num_cuts"],
            reconstruction_terms=data["reconstruction_terms"],
            calibrated=data["calibrated"],
            reconstruction_cost=data.get("reconstruction_cost", 0.0),
        )

    def __repr__(self) -> str:
        cached = (
            f", {self.cached_variants} cached" if self.cached_variants else ""
        )
        return (
            f"CostEstimate({len(self.fragments)} fragments, "
            f"{self.num_variants} variants ({self.unique_variants} unique"
            f"{cached}), 4^{self.num_cuts} terms, "
            f"cost~{self.total_cost:.3g}"
            f"{' [calibrated]' if self.calibrated else ''})"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A frozen record of every pipeline decision, ready to execute.

    Produced by :meth:`SuperSim.plan`; never constructed directly.
    Override hooks (``with_cuts``, ``with_backend``) return *new* plans —
    an existing plan is never mutated, so plans can be shared, compared
    and re-executed safely.
    """

    circuit: Circuit = field(repr=False)
    cut_circuit: CutCircuit
    keep_qubits: tuple[int, ...]
    backend_names: tuple[str, ...]
    fragment_modes: tuple[str, ...] = field(repr=False)
    planning_seconds: float = field(repr=False, compare=False)
    # execution context (not part of the plan's identity)
    _sim: object = field(repr=False, compare=False)
    _backends: tuple[Backend, ...] = field(repr=False, compare=False)

    # -- serialisation ------------------------------------------------------

    def __getstate__(self):
        # a plan travels over the service wire without its engine: the
        # coordinator re-binds its own SuperSim (same configs) on arrival.
        # The backend instances stay — they are picklable (service job
        # frames already carry them) and they ARE the plan's routing.
        state = {
            f: getattr(self, f)
            for f in self.__dataclass_fields__
            if f != "_sim"
        }
        state["_sim"] = None
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def bind(self, sim) -> "ExecutionPlan":
        """Attach an engine to an unbound (e.g. unpickled) plan.

        Returns a new plan whose :meth:`estimate` / :meth:`execute` run on
        ``sim``.  Binding a bound plan re-targets it.
        """
        return replace(self, _sim=sim)

    def _require_sim(self):
        if self._sim is None:
            raise RuntimeError(
                "this ExecutionPlan is unbound (it crossed a process "
                "boundary without its engine); call plan.bind(sim) first"
            )
        return self._sim

    # -- introspection ------------------------------------------------------

    @property
    def num_cuts(self) -> int:
        return self.cut_circuit.num_cuts

    @property
    def num_fragments(self) -> int:
        return len(self.cut_circuit.fragments)

    @property
    def num_variants(self) -> int:
        return sum(f.num_variants for f in self.cut_circuit.fragments)

    def backend_for(self, fragment_index: int) -> str:
        """The backend name assigned to one fragment."""
        return self.backend_names[fragment_index]

    # -- dry run ------------------------------------------------------------

    def estimate(self) -> CostEstimate:
        """Predicted cost of executing this plan — no simulation runs.

        Per-fragment costs come from each assigned backend's
        ``estimate_cost`` model under the plan's evaluation mode, scaled
        by the router's calibration constants when present, times the
        fragment's variant count.  In exact mode the dry run also
        fingerprints every job against the attached cache to predict hits.
        """
        return self._require_sim()._estimate_plan(self)

    # -- overrides ----------------------------------------------------------

    def with_cuts(self, cuts) -> "ExecutionPlan":
        """Re-plan the same circuit under a user-chosen cut set.

        Cutting anew changes what the fragments *are*, so the new plan is
        fully re-routed: any earlier ``with_backend`` pin (which named a
        fragment of the old cut set) does not carry over — apply
        ``with_cuts`` first, then pin backends on the resulting plan.
        """
        return self._require_sim().plan(
            self.circuit, keep_qubits=list(self.keep_qubits), cuts=list(cuts)
        )

    def with_backend(self, fragment_index: int, backend) -> "ExecutionPlan":
        """A new plan with one fragment pinned to ``backend`` (name or instance).

        The override is validated against the fragment's features and the
        plan's evaluation mode, so an impossible assignment fails here
        rather than mid-execution.
        """
        from repro.backends import as_backend, get_backend

        fragments = self.cut_circuit.fragments
        if not 0 <= fragment_index < len(fragments):
            raise IndexError(
                f"fragment index {fragment_index} out of range "
                f"(plan has {len(fragments)} fragments)"
            )
        resolved = (
            get_backend(backend) if isinstance(backend, str) else as_backend(backend)
        )
        mode = self.fragment_modes[fragment_index]
        features = CircuitFeatures.from_circuit(fragments[fragment_index].circuit)
        if not resolved.can_handle(
            features, exact=mode == "exact", noisy=mode == "noisy"
        ):
            raise ValueError(
                f"backend {resolved.name!r} cannot evaluate fragment "
                f"{fragment_index} ({features}, mode={mode})"
            )
        backends = list(self._backends)
        names = list(self.backend_names)
        backends[fragment_index] = resolved
        names[fragment_index] = resolved.name
        return replace(
            self,
            backend_names=tuple(names),
            _backends=tuple(backends),
        )

    # -- execution ----------------------------------------------------------

    def execute(self):
        """Run evaluate → tomography → reconstruct under this plan."""
        return self._require_sim()._execute_plan(self)


@dataclass(frozen=True)
class SweepResult:
    """One point of a :meth:`SuperSim.sweep`.

    ``result`` is the point's ``SuperSimResult`` — or ``None`` when the
    point did not produce one: under ``failure_policy="retry"`` /
    ``"degrade"`` a point whose execution still failed is yielded with
    the exception in ``error`` instead of aborting the sweep, and a point
    already recorded in the sweep's checkpoint file is yielded with
    ``skipped=True``.  ``degradation`` names any quality compromise the
    batch layer made for this point (currently: the reused cut set did
    not transfer and the point was re-planned from scratch).
    """

    index: int
    params: object
    result: object  # SuperSimResult | None
    error: object = None  # the exception, for failed points
    skipped: bool = False  # already completed per the checkpoint file
    degradation: str | None = None

    @property
    def ok(self) -> bool:
        """Did this point produce a result in this sweep?"""
        return self.result is not None

    @property
    def distribution(self):
        return self.result.distribution

    @property
    def cache_hits(self) -> int:
        return self.result.cache_hits
