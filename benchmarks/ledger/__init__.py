"""The layered performance ledger (ROADMAP item 1).

Four named workloads drive the system through its public entry points;
an untraced run yields the end-to-end metrics and a separate traced run
the per-layer ones.  ``BENCHMARK.json`` at the repository root declares
every workload and metric; ``README.md`` here defines them.

Run ``python benchmarks/ledger --help`` (or ``python -m benchmarks.ledger``).
"""
