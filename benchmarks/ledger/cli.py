"""Command line of the ledger.

* ``--workload W --seed N --seconds S --trace 0|1`` — one run in this
  process; the last line of stdout is the result as one JSON object
  (the form ``BENCHMARK.json``'s ``command`` is driven in).
* no ``--workload`` — the whole ledger: every workload, untraced then
  traced, each run in a fresh subprocess; writes ``_out/ledger-seed<N>.json``.
* ``--smoke`` — the whole ledger at toy sizes (the tier-1 smoke test).
* ``--compare A.json B.json`` / ``--report [LEDGER.json]`` — read ledger files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger.report import compare, report
from benchmarks.ledger.runner import load_manifest, run
from benchmarks.ledger.workloads import FULL, LEDGER_DIR, OUT_DIR, SMOKE, WORKLOADS

#: seconds of measurement per run when the whole ledger is run by hand
#: (the driver passes BENCHMARK.json's shorter ``run_seconds``)
LEDGER_SECONDS = 30.0
SMOKE_SECONDS = 0.5


def fingerprint(seed: int) -> dict:
    """Where and on what the numbers were measured; two ledger files are
    comparable only if these agree (seed and commit may differ)."""
    import numpy

    from repro import kernels
    from repro.backends import host_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=LEDGER_DIR, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "host": host_fingerprint(),
        "kernel_tier": kernels.active_tier(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "seed": seed,
    }


def _run_in_subprocess(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One fresh process per run, so caches and peak RSS do not leak."""
    command = [
        sys.executable, str(LEDGER_DIR),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    command.append("--detail")
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name} (trace {trace}) printed no result, exit {done.returncode}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def _median_of_runs(runs: list[dict]) -> dict:
    """End-to-end metrics over repeated runs: the median as ``value``, every
    run kept as ``runs`` so ``--compare`` can see the spread."""
    merged = {}
    for name, cell in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        merged[name] = {
            "value": statistics.median(values), "unit": cell["unit"], "runs": values,
        }
    return merged


def _median_raw(runs: list[dict]) -> dict:
    return {
        key: statistics.median(run["raw"][key] for run in runs) for key in runs[0]["raw"]
    }


def run_ledger(
    seed: int, seconds: float, smoke: bool, only: list[str], out: Path, repeats: int
) -> int:
    manifest = load_manifest()
    ledger = {
        "fingerprint": fingerprint(seed),
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {},
    }
    started = time.perf_counter()
    status = 0
    for name in only:
        traced = _run_in_subprocess(name, seed, seconds, 1, smoke)
        if smoke:
            # one process per workload keeps the tier-1 smoke test short:
            # take the end-to-end numbers of the traced run's untraced phase
            untraced = [{**traced, "metrics": traced["end_to_end"]}]
        else:
            untraced = [
                _run_in_subprocess(name, seed, seconds, 0, smoke) for _ in range(repeats)
            ]
        runs = untraced + [traced]
        status = status or max(run["exit"] for run in runs)
        attempted = sum(run["attempted"] for run in untraced)
        ledger["workloads"][name] = {
            "correct": all(run["correct"] for run in runs),
            "ops": attempted,
            "failed_share": sum(run["failed"] for run in untraced) / attempted,
            "traced_ops": traced["attempted"],
            "traced_failed_share": traced["failed"] / traced["attempted"],
            "end_to_end": _median_of_runs(untraced),
            "raw": _median_raw(untraced),
            "per_layer": traced["metrics"],
        }
    ledger["total_s"] = time.perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=2) + "\n")
    for name, entry in ledger["workloads"].items():
        raw = entry["raw"]
        print(f"\n== {name}: {entry['ops']} ops, failed share {entry['failed_share']:.3f}; "
              f"raw p50 {raw['op_s_p50']:.4g} s, {raw['ops_per_s']:.4g} ops/s, "
              f"{raw['cpu_s_per_op']:.4g} cpu s/op, x{raw['norm_factor']:.2f} to nominal host speed")
        for group in ("end_to_end", "per_layer"):
            for metric in manifest[group]:
                cell = entry[group][metric["name"]]
                print(f"  {metric['name']:<38} {cell['value']:>14.6g} {cell['unit']}")
    print(f"\nwrote {out} in {ledger['total_s']:.0f} s; `--report` shows where the time goes")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this one, in this process")
    parser.add_argument("--seed", type=int, default=0, help="inputs are generated from it (1 = the held-out check)")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, about 15 s in all")
    parser.add_argument("--detail", action="store_true", help="keep the raw-seconds keys in a single run's result line")
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload (medians reported)")
    parser.add_argument("--out", type=Path, default=None, help="ledger file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--report", nargs="?", type=Path, const=True, default=None, metavar="LEDGER")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, load_manifest())
    if args.report is not None:
        if args.report is True:
            found = sorted(OUT_DIR.glob("ledger-*.json"), key=lambda p: p.stat().st_mtime)
            if not found:
                parser.error(f"no ledger file under {OUT_DIR}; run the ledger first")
            args.report = found[-1]
        return report(args.report)

    scale = SMOKE if args.smoke else FULL
    if args.workload and args.trace is not None:
        seconds = args.seconds if args.seconds is not None else LEDGER_SECONDS
        result = run(
            args.workload, args.seed, seconds, args.trace, scale,
            starts=1 if args.smoke else 3,
        )
        for note in result.pop("notes"):
            print(f"{args.workload}: {note}", file=sys.stderr)
        if not args.detail:
            # the driver's form: exactly correct / attempted / failed / metrics
            result.pop("end_to_end", None)
            result.pop("raw")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else LEDGER_SECONDS
    only = [args.workload] if args.workload else list(WORKLOADS)
    out = args.out or OUT_DIR / (
        "ledger-smoke.json" if args.smoke else f"ledger-seed{args.seed}.json"
    )
    return run_ledger(args.seed, seconds, args.smoke, only, out, max(1, args.repeats))

