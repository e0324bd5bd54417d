"""Where the traced run puts its spans, and how spans become per-layer metrics.

``install_*`` wrap the public functions at each layer boundary, in the
namespace their caller looks them up in, for the life of the process.
``aggregate`` turns the recorded spans into the ``per_layer`` metrics
declared in ``BENCHMARK.json`` (``_s_per_op`` = summed span self-time ÷ ops).
"""

from __future__ import annotations

BACKENDS = ("stabilizer", "statevector", "chform", "mps", "extended_stabilizer")
KERNELS = (
    "apply_layers",
    "row_mul",
    "gf2_matmul",
    "bit_gather",
    "inverse_cdf_indices",
    "dense_contract",
    "window_reduce",
)
_BACKEND_ENTRY_POINTS = (
    "probabilities",
    "sample",
    "affine_distribution",
    "sample_noisy_bits",
)


def install_backends(tracer) -> None:
    """One ``backend.<name>`` span per variant job: a timing proxy around
    the ``Backend`` entry points the evaluator calls.  Sampling from a
    stabilizer fragment's affine form happens after the backend returns,
    so it gets a span of its own under the backend's name."""
    from repro.backends import available_backends, get_backend
    from repro.stabilizer.tableau import AffineOutcomeDistribution

    def label(backend, *_args):
        return f"backend.{backend.name}"

    for name in available_backends():
        cls = type(get_backend(name))
        for method in _BACKEND_ENTRY_POINTS:
            if method in cls.__dict__:
                tracer.wrap(cls, method, label)
    tracer.wrap(
        AffineOutcomeDistribution, "sample_bits", "backend.stabilizer.sample_bits"
    )


def install_pipeline(tracer) -> None:
    """Spans around cutter / plan / evaluator / tomography / reconstruction."""
    from repro.core import supersim
    from repro.core.evaluator import FragmentEvaluator
    from repro.core.plan import ExecutionPlan

    def cut_counts(span, _args, cut_circuit):
        span.attrs["cuts"] = cut_circuit.num_cuts
        span.attrs["fragments"] = len(cut_circuit.fragments)

    def evaluate_counts(span, args, _result):
        stats = args[0].last_stats
        span.attrs["variants"] = stats["jobs"]
        span.attrs["jobs"] = stats["unique_jobs"]
        span.attrs["hits"] = stats["cache_hits"]
        span.attrs["misses"] = stats["cache_misses"]

    def reconstruction_stats(span, _args, result):
        stats = result[1]
        # the dense engine is one contraction and leaves `windows` at 0
        span.attrs["windows"] = stats.windows or 1
        span.attrs["peak_entries"] = stats.peak_window_entries
        span.attrs["covered"] = stats.covered_probability

    tracer.wrap(supersim.SuperSim, "plan", "plan")
    tracer.wrap(supersim, "plan_cuts", "plan.cut", on_return=cut_counts)
    tracer.wrap(ExecutionPlan, "estimate", "plan.estimate")
    tracer.wrap(
        FragmentEvaluator, "evaluate_all", "evaluate", on_return=evaluate_counts
    )
    tracer.wrap(supersim, "build_fragment_tensor", "tomography")
    tracer.wrap(supersim, "build_conditioned_fragment_tensor", "tomography")
    for engine in ("reconstruct_distribution", "reconstruct_dynamic"):
        tracer.wrap(supersim, engine, "reconstruct", on_return=reconstruction_stats)


def aggregate(tracer, ops: int, kernel_deltas: dict, worker_backends: dict) -> dict:
    """Per-layer metrics of ``ops`` traced ops.

    ``kernel_deltas`` maps kernel name to ``(calls, seconds)`` over the
    traced ops, summed over every process that ran them;
    ``worker_backends`` maps backend name to ``(jobs, seconds)`` run in
    worker processes (the coordinator's own spans cover the rest).
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_id = {s.id: s for s in spans}

    def under_reconstruct(span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "reconstruct":
                return True
        return False

    def named(*names):
        return [s for s in spans if s.name in names]

    def self_time(selected) -> float:
        return sum(own[s.id] for s in selected)

    def total(selected, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in selected)

    per_op = 1.0 / ops
    metrics: dict[str, float] = {}

    cuts = named("plan.cut")
    metrics["plan.s_per_op"] = self_time(named("plan", "plan.cut")) * per_op
    metrics["plan.estimate_s_per_op"] = (
        sum(s.duration for s in named("plan.estimate")) * per_op
    )
    metrics["plan.cuts"] = max((s.attrs["cuts"] for s in cuts), default=0)
    metrics["plan.fragments"] = max((s.attrs["fragments"] for s in cuts), default=0)

    evaluates = named("evaluate")
    lookups = total(evaluates, "hits") + total(evaluates, "misses")
    metrics["plan.variants_per_op"] = total(evaluates, "variants") * per_op
    metrics["evaluate.s_per_op"] = sum(s.duration for s in evaluates) * per_op
    metrics["evaluate.overhead_s_per_op"] = self_time(evaluates) * per_op
    metrics["evaluate.jobs_per_op"] = total(evaluates, "jobs") * per_op
    metrics["evaluate.cache_hit_share"] = (
        total(evaluates, "hits") / lookups if lookups else 0.0
    )

    for name in BACKENDS:
        prefix = f"backend.{name}"
        mine = [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]
        jobs, seconds = worker_backends.get(name, (0, 0.0))
        metrics[f"{prefix}.s_per_op"] = (self_time(mine) + seconds) * per_op
        metrics[f"{prefix}.jobs_per_op"] = (
            sum(1 for s in mine if s.name == prefix) + jobs
        ) * per_op

    for name in KERNELS:
        calls, seconds = kernel_deltas.get(name, (0, 0.0))
        metrics[f"kernel.{name}.s_per_op"] = seconds * per_op
        metrics[f"kernel.{name}.calls_per_op"] = calls * per_op

    # conditioned tensors built inside the recursive engine belong to it
    stage = [s for s in named("tomography") if not under_reconstruct(s)]
    metrics["tomography.s_per_op"] = self_time(stage) * per_op
    metrics["tomography.tensors_per_op"] = len(stage) * per_op

    reconstructs = named("reconstruct")
    metrics["reconstruct.s_per_op"] = sum(s.duration for s in reconstructs) * per_op
    metrics["reconstruct.windows_per_op"] = total(reconstructs, "windows") * per_op
    metrics["reconstruct.peak_entries"] = max(
        (s.attrs["peak_entries"] for s in reconstructs), default=0
    )
    metrics["reconstruct.covered_probability"] = min(
        (s.attrs["covered"] for s in reconstructs), default=0.0
    )

    metrics["circuits.build_s_per_op"] = self_time(named("circuits.build")) * per_op

    # client.* spans overlap the coordinator's spans of the same op
    attributed = sum(
        own[s.id]
        for s in spans
        if s.name != "op" and not s.name.startswith("client.")
    )
    op_wall = sum(s.duration for s in named("op"))
    metrics["op.unattributed_share"] = 1.0 - attributed / op_wall if op_wall else 0.0
    return metrics
