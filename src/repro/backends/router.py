"""Capability-based backend routing (paper §V-B, generalised).

The old dispatch was a hard-coded branch: Clifford fragments to the
stabilizer simulator, everything else to the statevector simulator.  The
:class:`BackendRouter` replaces it with scoring: every registered backend
reports whether it *can* run a circuit (:meth:`Backend.can_handle`, from
its :class:`~repro.backends.base.Capabilities`) and what it would roughly
*cost* (:meth:`Backend.estimate_cost`, a function of the circuit's width,
T-count and entangling depth); the cheapest capable backend wins.

With the default cost models this reproduces the paper's dispatch exactly —
tableau for Clifford fragments, statevector for narrow non-Clifford ones —
while automatically picking up MPS for wide low-entanglement fragments and
the extended stabilizer for wide diagonal-non-Clifford fragments, the §XI
extension points.

The router only scores.  Overrides live with the evaluator that consults
it: a forced backend (``ExecutionConfig(backend="mps")``) wins for every
fragment it can handle (``FragmentEvaluator._backend_for``), and a
plan-level ``ExecutionPlan.with_backend(i, name)`` pins a single fragment.
"""

from __future__ import annotations

from repro.backends.base import Backend, CircuitFeatures
from repro.backends.registry import available_backends, get_backend


class NoCapableBackendError(RuntimeError):
    """No registered backend can run the circuit under the given mode."""


class BackendRouter:
    """Scores candidate backends against circuit features.

    It only scores: a forced backend and a pinned fragment are applied by
    the :class:`~repro.core.evaluator.FragmentEvaluator` that consults it.

    Parameters
    ----------
    backends:
        Candidate pool — backend instances or registered names.  Defaults
        to one instance of every registered backend.
    cost_scales:
        Optional per-backend multipliers applied to ``estimate_cost`` at
        scoring time, mapping backend name to a positive float.  The
        analytic cost models fix each backend's *shape* (``n^2/64``,
        ``2^n``, ``chi^3``, ``2^T``); these constants pin down the
        relative units — measure them on this machine with
        :func:`repro.backends.calibration.measure_cost_scales`.
    """

    def __init__(
        self,
        backends: list[Backend | str] | None = None,
        cost_scales: dict[str, float] | None = None,
        **factory_kwargs,
    ):
        if backends is None:
            backends = available_backends()
        self.backends: list[Backend] = [
            get_backend(b, **factory_kwargs) if isinstance(b, str) else b
            for b in backends
        ]
        self.cost_scales: dict[str, float] = dict(cost_scales or {})
        for name, scale in self.cost_scales.items():
            if not (scale > 0):  # also rejects NaN
                raise ValueError(
                    f"cost scale for {name!r} must be positive, got {scale}"
                )

    def scored_cost(
        self,
        backend: Backend,
        features: CircuitFeatures,
        mode: str = "exact",
    ) -> float:
        """A backend's model cost with this router's calibration applied.

        ``mode`` ("exact" or "sampled") reaches the backend's per-mode
        cost model, by keyword.
        """
        cost = backend.estimate_cost(features, mode=mode)
        return cost * self.cost_scales.get(backend.name, 1.0)

    def ranked(
        self,
        features: CircuitFeatures,
        exact: bool = True,
        noisy: bool = False,
    ) -> list[Backend]:
        """Every capable backend, cheapest first.

        This is the fallback ordering ``failure_policy="degrade"`` walks
        when a backend fails mid-run: the next entry is the cheapest
        *remaining* backend whose capabilities admit the fragment.
        """
        mode = "exact" if exact else "sampled"
        candidates = [
            b
            for b in self.backends
            if b.can_handle(features, exact=exact, noisy=noisy)
        ]
        return sorted(
            candidates, key=lambda b: self.scored_cost(b, features, mode)
        )

    def select(
        self,
        features: CircuitFeatures,
        exact: bool = True,
        noisy: bool = False,
    ) -> Backend:
        """The cheapest backend capable of the circuit."""
        candidates = [
            b
            for b in self.backends
            if b.can_handle(features, exact=exact, noisy=noisy)
        ]
        if not candidates:
            raise NoCapableBackendError(
                f"no backend can evaluate this circuit "
                f"(features={features}, exact={exact}, noisy={noisy}); "
                f"pool={[b.name for b in self.backends]}"
            )
        mode = "exact" if exact else "sampled"
        return min(candidates, key=lambda b: self.scored_cost(b, features, mode))
