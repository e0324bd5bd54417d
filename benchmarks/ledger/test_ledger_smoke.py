"""Tier-1 guard for the performance ledger: run it at toy sizes and check
that it still emits what ``BENCHMARK.json`` declares, so the benchmark
cannot rot unnoticed.  No timing is asserted."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger.contract import manifest_problems
from benchmarks.ledger.spans import check_nesting

LEDGER_DIR = Path(__file__).resolve().parent
MANIFEST = LEDGER_DIR.parents[1] / "BENCHMARK.json"


def test_manifest_matches_the_contract_schema():
    assert manifest_problems(json.loads(MANIFEST.read_text())) == []


def test_smoke_ledger_emits_every_declared_metric(tmp_path):
    out = tmp_path / "ledger-smoke.json"
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    ledger = json.loads(out.read_text())
    manifest = json.loads(MANIFEST.read_text())
    assert set(ledger["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for key in ("host", "kernel_tier", "nproc", "python", "numpy", "blas_threads", "commit", "seed"):
        assert key in ledger["fingerprint"]

    for name, entry in ledger["workloads"].items():
        assert entry["correct"], name
        assert entry["failed_share"] == 0 and entry["traced_failed_share"] == 0, name
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in manifest[group]}
            assert set(entry[group]) == set(declared), (name, group)
            for metric, cell in entry[group].items():
                assert cell["unit"] == declared[metric], (name, metric)
                assert math.isfinite(cell["value"]), (name, metric)
        # end-to-end metrics are regression-gated by ratio: never zero
        assert all(cell["value"] > 0 for cell in entry["end_to_end"].values()), name
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        assert layer["evaluate.s_per_op"] > 0 and layer["plan.s_per_op"] > 0, name
        assert 0 <= layer["op.unattributed_share"] < 1, name

        rows = [
            json.loads(line)
            for line in (LEDGER_DIR / "_out" / f"trace-{name}.jsonl").read_text().splitlines()
        ]
        assert any(row["name"] == "op" for row in rows), name
        assert check_nesting(rows) == [], name

    service = ledger["workloads"]["service_sweep"]["per_layer"]
    assert service["service.jobs_per_op"]["value"] > 0
    assert service["worker.run_s_per_job"]["value"] > 0
    assert service["client.frames_per_op"]["value"] >= 1
