"""Reachability audit: every function under ``src/repro`` is entered by
real traffic, or ``benchmarks/reach_allow.txt`` says why not.

    python benchmarks/reach.py

The traffic is what the product is for: every ``examples/*.py``, the
performance ledger at smoke scale (``benchmarks/ledger --smoke``, whose
workload subprocesses and service workers are traced too) and the figure
and ablation benchmarks (``pytest benchmarks --benchmark-disable``, one
untimed call per case).  Each runs in its own process with a generated
``sitecustomize.py`` first on ``PYTHONPATH``; the hook (``sys.setprofile``
and ``threading.setprofile``) appends every newly entered code object
under ``src/repro`` to a per-process file as it goes, so a worker that
ends in ``os._exit`` or SIGKILL still counts.  Nothing under ``src/`` is
hooked or changed.  ``PYTHONHASHSEED`` is pinned, so a run enters what
the last one entered unless timing moved a fault path.

The report lists every top-level function and method (a ``def`` in a
module body or directly in a module-level class) that nothing entered,
grouped by module, with its code lines as ``benchmarks/code_lines.py``
counts them.  It exits 1 when such a function is not covered by the
allowlist, when an allowlist entry names a module, class or function
that does not exist, or when the traffic itself fails.  It writes no
tracked file.

An allowlist line is ``<dotted name>  <kind>: <reason>``.  The name is a
module or package (``repro.testing`` covers its submodules), a class
(covers its methods) or a function or method.  The kind is one of
``KINDS``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from code_lines import code_line_numbers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOW = ROOT / "benchmarks" / "reach_allow.txt"

#: what may keep a function that no traffic enters
KINDS = ("oracle", "fault", "cli", "baseline", "to-decide")

HOOK = '''\
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "entered-%d.txt")
_seen = {{}}  # id -> code: holding the code keeps its id from being reused
_file = [None, None]  # (pid, fd): a forked child opens a file of its own


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if _seen.get(id(code)) is code:
        return
    _seen[id(code)] = code
    path = os.path.realpath(code.co_filename)
    if not path.startswith(_PREFIX):
        return
    pid = os.getpid()
    if _file[0] != pid:
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        _file[:] = [pid, os.open(_OUT % pid, flags, 0o644)]
    os.write(_file[1], f"{{path}}:{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

@dataclass(frozen=True)
class Function:
    """One top-level function or method of a module under the audit."""

    module: str
    qualname: str
    path: str
    line: int  # of the first decorator, as ``co_firstlineno`` counts
    code_lines: int


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def enumerate_functions(src: Path) -> list[Function]:
    """Every ``def`` in a module body or in a module-level class body, of
    every ``*.py`` under ``src``."""
    functions = []
    for path in sorted(src.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = code_line_numbers(source)
        module = _module_name(path, src)
        real = os.path.realpath(path)

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    lines = len(code.intersection(range(first, node.end_lineno + 1)))
                    functions.append(
                        Function(module, prefix + node.name, real, first, lines)
                    )
                elif isinstance(node, ast.ClassDef) and not prefix:
                    visit(node.body, node.name + ".")

        visit(ast.parse(source).body, "")
    return functions


def read_allowlist(path: Path) -> tuple[dict[str, str], list[str]]:
    """``({name: reason}, problems)`` of an allowlist file."""
    entries: dict[str, str] = {}
    problems = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        reason = reason.strip()
        if reason.partition(":")[0] not in KINDS or not reason.partition(":")[2].strip():
            problems.append(f"{path.name}:{number}: {name}: no '<kind>: <reason>' ({', '.join(KINDS)})")
        elif name in entries:
            problems.append(f"{path.name}:{number}: {name} is listed twice")
        entries[name] = reason
    return entries, problems


def covering_entry(function: Function, entries: dict[str, str]) -> str | None:
    """The allowlist entry that covers ``function``: the function itself,
    its class, its module or a package above it."""
    parts = function.qualname.split(".")
    names = [f"{function.module}.{'.'.join(parts[:k])}" for k in range(len(parts), 0, -1)]
    module = function.module.split(".")
    names += [".".join(module[:k]) for k in range(len(module), 0, -1)]
    return next((name for name in names if name in entries), None)


def stale_entries(entries: dict[str, str], src: Path, functions: list[Function]) -> list[str]:
    """Entries naming no module, class or function under the audit."""
    known = {_module_name(path, src) for path in src.rglob("*.py")}
    for function in functions:
        parts = function.qualname.split(".")
        known.update(f"{function.module}.{'.'.join(parts[:k])}" for k in range(1, len(parts) + 1))
    return [name for name in entries if name not in known]


def read_entered(directory: Path) -> set[tuple[str, int]]:
    """``(real path, first line)`` of every code object the hook wrote."""
    entered = set()
    for file in directory.glob("entered-*.txt"):
        for line in file.read_text(encoding="utf-8").splitlines():
            path, _, number = line.rpartition(":")
            entered.add((path, int(number)))
    return entered


def report(src: Path, entered: set[tuple[str, int]], allow: Path) -> int:
    """Print the functions nothing entered; 1 when one is not allowlisted
    or an allowlist entry is stale or malformed, else 0."""
    functions = enumerate_functions(src)
    entries, problems = read_allowlist(allow)
    missed = [f for f in functions if (f.path, f.line) not in entered]
    by_module: dict[str, list[Function]] = defaultdict(list)
    for function in missed:
        by_module[function.module].append(function)
    uncovered = []
    used = set()
    for module, group in sorted(by_module.items()):
        print(f"{module}  ({len(group)} not entered, {sum(f.code_lines for f in group)} code lines)")
        for function in group:
            entry = covering_entry(function, entries)
            if entry is None:
                uncovered.append(function)
                why = "NOT ALLOWLISTED"
            else:
                used.add(entry)
                why = entries[entry].partition(":")[0]
            print(f"    {function.code_lines:5d}  {function.qualname}  [{why}]")
    print(
        f"\nentered {len(functions) - len(missed)} of {len(functions)} top-level "
        f"functions and methods; {len(missed)} not entered "
        f"({sum(f.code_lines for f in missed)} code lines)"
    )
    idle = sorted(set(entries) - used)
    if idle:
        print(f"allowlist entries covering nothing that was missed: {', '.join(idle)}")
    problems += [
        f"{allow.name}: {name} names no module, class or function under {src}"
        for name in stale_entries(entries, src, functions)
    ]
    problems += [
        f"{function.module}.{function.qualname} ({function.code_lines} code lines) "
        f"was not entered and is not in {allow.name}"
        for function in uncovered
    ]
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def _traffic(ledger_out: Path) -> list[list[str]]:
    """The commands whose entries count, each run from the repository root."""
    examples = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "examples").glob("*.py"))
    return [[sys.executable, example] for example in examples] + [
        [sys.executable, "benchmarks/ledger", "--smoke", "--out", str(ledger_out)],
        # the ledger's own smoke test would repeat the run above; with
        # timing disabled each figure case runs once, and pytest-benchmark
        # leaves the profiler alone
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", "--ignore=benchmarks/ledger"],
    ]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir = Path(tmp) / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(prefix=os.path.join(os.path.realpath(SRC / "repro"), ""))
        )
        # a fixed string hash makes the dict collisions, and so the
        # ``__eq__`` calls they cost, the same on every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        began = time.monotonic()
        for command in _traffic(Path(tmp) / "ledger-smoke.json"):
            start = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
            label = " ".join(command[1:])
            print(f"traced {label}  ({time.monotonic() - start:.0f} s)", flush=True)
            if done.returncode != 0:
                print(done.stdout[-4000:] + done.stderr[-4000:])
                print(f"FAIL: the traffic itself failed (exit {done.returncode}): {label}")
                return 1
        print(f"traffic traced in {time.monotonic() - began:.0f} s\n")
        return report(SRC, read_entered(hook_dir), ALLOW)


if __name__ == "__main__":
    sys.exit(main())
