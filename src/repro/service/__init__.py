"""The distributed execution service: coordinator, workers, clients.

``SuperSim`` is a library — one process plans, evaluates and
reconstructs.  This package stretches the same pipeline across
processes, turning the engine into a long-running shared service:

* :mod:`repro.service.protocol` — the length-prefixed JSON/pickle wire
  protocol and the :class:`~repro.service.protocol.Transport`
  abstraction both sides speak;
* :mod:`repro.service.coordinator` — the asyncio coordinator: admission
  control priced by :meth:`ExecutionPlan.estimate`, a priority job
  queue with per-worker back-pressure, the shared variant cache,
  and the fold-back of streamed variant results into tomography /
  reconstruction;
* :mod:`repro.service.requests` — the pure request ledger: what an
  accepted request is owed (executed once, charged once, its reply kept
  until acknowledged or expired), written through to
  :mod:`repro.service.journal`;
* :mod:`repro.service.worker` — the worker process
  (``python -m repro.service.worker --connect host:port``) that pulls
  variant jobs and executes them through the engine's own
  fault-tolerant job machinery;
* :mod:`repro.service.client` — :class:`ServiceClient`, whose ``run()``
  / ``sweep()`` / ``submit()`` mirror ``SuperSim`` and return
  bit-for-bit the results a local engine would.

The split point is deliberately the engine's *job* — one variant, or a
whole noiseless Clifford fragment, whose body then evolves once on
whichever worker holds it.  Jobs are pure (seeded by content
fingerprints, not submission order), so distributing them changes where
work happens but never what it computes — a seeded service run is
bit-for-bit identical to a local one.  Worker loss maps
onto the engine's existing fault taxonomy ("crash" / "quarantine" /
"fallback" events in ``SuperSimResult.faults``), so callers observe
distributed faults through exactly the ledger they already know.

The wire protocol carries pickles and therefore trusts its peers: bind
the coordinator to localhost (the default) or an equally trusted
network only.
"""

__all__ = [
    "Coordinator",
    "CoordinatorJournal",
    "ServiceClient",
    "Transport",
    "connect",
    "run_worker",
]

_EXPORTS = {
    "Coordinator": ("repro.service.coordinator", "Coordinator"),
    "CoordinatorJournal": ("repro.service.journal", "CoordinatorJournal"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "Transport": ("repro.service.protocol", "Transport"),
    "connect": ("repro.service.protocol", "connect"),
    "run_worker": ("repro.service.worker", "run_worker"),
}


def __getattr__(name: str):
    # lazy exports: `python -m repro.service.worker` must not import the
    # worker module through the package first (runpy would then execute
    # it twice), and clients should not pay for asyncio/coordinator
    # imports they never use
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
