"""Entry point: ``python benchmarks/ledger`` or ``python -m benchmarks.ledger``.

Puts the repository root and ``src/`` on ``sys.path`` itself, so the
command in ``BENCHMARK.json`` needs no ``PYTHONPATH``.
"""

import os
import sys
from pathlib import Path

#: BLAS worker threads spin while idle; with the default (one per core) they
#: contend with the service's own workers and with each other on a small
#: host and make every timing erratic.  Pinned before numpy loads; a value
#: already in the environment wins and is recorded in the fingerprint.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bootstrap() -> None:
    for variable in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    root = Path(__file__).resolve().parents[2]
    src = root / "src"
    if not (src / "repro").is_dir():
        print(
            f"benchmarks.ledger: {src / 'repro'} not found — the ledger "
            "measures the repro package and cannot run without it",
            file=sys.stderr,
        )
        sys.exit(2)
    for path in (str(src), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.ledger.cli import main

    sys.exit(main())
