"""Worker launcher of the traced ``service_sweep`` run only.

Joins the coordinator exactly like ``python -m repro.service.worker
--slots 1`` but hands ``run_worker`` a recording transport and puts spans
around the backend entry points; on exit it writes what it saw as JSON.
The untraced run uses the stock worker.
"""

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[2]
    for path in (str(root / "src"), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from repro import kernels
    from repro.service.worker import run_worker

    from benchmarks.ledger import layers, service_probe
    from benchmarks.ledger.spans import Tracer

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--trace-out", required=True, help="span JSON lines to write")
    args = parser.parse_args()

    tracer = Tracer()
    layers.install_backends(tracer)
    tracer.enabled = True
    transport = service_probe.RecordingTransport(args.connect)
    run_worker(args.connect, slots=1, name=args.name, transport=transport)

    own = tracer.self_times()
    backends: dict[str, list] = {}
    for span in tracer.spans:
        name = span.name.split(".")[1]
        entry = backends.setdefault(name, [0, 0.0])
        entry[0] += span.name.count(".") == 1  # nested helpers are not jobs
        entry[1] += own[span.id]
    summary = service_probe.worker_summary(transport.frames)
    summary["backends"] = backends
    summary["kernels"] = kernels.counters_snapshot()
    Path(args.out).write_text(json.dumps(summary))
    tracer.write_jsonl(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
