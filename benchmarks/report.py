"""Pretty-print the benchmark series recorded under benchmarks/_results/.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/report.py
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

FIGURES = {
    "fig1": "Fig. 1 — random Clifford circuits, depth = width, 10k shots",
    "fig3": "Fig. 3 — VQE HWEA, 5 rounds, 1 T gate: runtime vs width",
    "fig4": "Fig. 4 — VQE HWEA, 16 qubits, 1 T gate: runtime vs rounds",
    "fig5": "Fig. 5 — SuperSim scaling, HWEA 5 rounds, 1 T gate",
    "fig6": "Fig. 6 — QAOA SK MaxCut, 1 round, 1 T gate: runtime vs width",
    "fig7": "Fig. 7 — phase repetition code, 1 T gate: runtime + fidelity",
    "ablation_clifford_opts": "Ablation §IX — Clifford-specific optimizations",
    "ablation_cutter": "Ablation — cut placement strategy",
}


def load(figure: str) -> list[dict]:
    path = RESULTS_DIR / f"{figure}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def series_key(row: dict) -> str:
    return row.get("simulator") or row.get("config") or row.get("strategy", "?")


def x_key(row: dict) -> float:
    for key in ("rounds", "n"):
        if key in row:
            return row[key]
    return 0


def print_figure(figure: str, title: str) -> None:
    rows = load(figure)
    if not rows:
        return
    print(f"\n{title}")
    print("-" * len(title))
    by_series: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        by_series[series_key(row)].append(row)
    for name, points in sorted(by_series.items()):
        points.sort(key=x_key)
        print(f"  {name}:")
        for p in points:
            x = x_key(p)
            seconds = p["seconds"]
            timing = "   (untimed)" if seconds is None else f"{seconds:9.3f}s"
            line = f"    x={x:<5g} time={timing}"
            if p.get("fidelity") is not None:
                line += f"  fidelity={p['fidelity']:.4f}"
            if "num_cuts" in p:
                line += f"  cuts={p['num_cuts']}"
            print(line)


def main() -> None:
    for figure, title in FIGURES.items():
        print_figure(figure, title)


if __name__ == "__main__":
    main()
