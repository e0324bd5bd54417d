"""The schema ``BENCHMARK.json`` has to satisfy, as a checker.

The smoke test runs it so the manifest cannot drift out of the form the
benchmark driver accepts without tier-1 noticing.
"""

from __future__ import annotations

import json
import re

_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}\Z")


def manifest_problems(manifest: dict) -> list[str]:
    """Every way ``manifest`` departs from the schema (empty = valid)."""
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    check(set(manifest) == _KEYS, f"keys must be exactly {sorted(_KEYS)}")
    if problems:
        return problems
    check(len(json.dumps(manifest)) <= 64 * 1024, "file larger than 64 KiB")

    paths = manifest["paths"]
    check(1 <= len(paths) <= 16, "1 to 16 paths")
    for path in paths:
        check(
            bool(_PATH.match(path)) and not path.startswith("/") and ".." not in path.split("/"),
            f"bad path {path!r}",
        )
    command = manifest["command"]
    check(1 <= len(command) <= 32, "command of 1 to 32 strings")
    for word in command:
        check(isinstance(word, str) and len(word) <= 200, f"bad command word {word!r}")
        check(not word.startswith("/") and ".." not in word.split("/"), f"command leaves the repo: {word!r}")
    run_seconds = manifest["run_seconds"]
    check(isinstance(run_seconds, int) and 1 <= run_seconds <= 60, "run_seconds: whole number 1..60")

    names: list[str] = []
    check(2 <= len(manifest["workloads"]) <= 8, "2 to 8 workloads")
    for workload in manifest["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys: {workload}")
        why = workload.get("why", "")
        check(len(why) <= 200 and "\n" not in why, f"why of {workload.get('name')}: one line, <= 200 chars")
        names.append(workload.get("name", ""))

    check(1 <= len(manifest["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    for metric in manifest["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"end_to_end keys: {metric}")
        bound = metric.get("bound")
        check(isinstance(bound, (int, float)) and 0 < bound <= 0.25, f"bound of {metric.get('name')}")
    check(
        any(
            m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
            for m in manifest["end_to_end"]
        ),
        "end_to_end must hold setup_s (unit s, better lower)",
    )
    check(1 <= len(manifest["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for metric in manifest["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, f"per_layer keys: {metric}")
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(metric.get("name", ""))
        check(bool(_UNIT.match(str(metric.get("unit", "")))), f"bad unit in {metric}")
        check(metric.get("better") in ("lower", "higher"), f"bad direction in {metric}")
    for name in names:
        check(bool(_NAME.match(name)), f"bad name {name!r}")
    check(len(set(names)) == len(names), "a name is used twice")
    return problems
