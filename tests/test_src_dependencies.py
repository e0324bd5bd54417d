"""``src/`` needs only what CI installs: the standard library and NumPy.

Every absolute ``import`` under ``src/repro`` is read with ``ast`` (nothing
is imported), so an optional third-party module guarded by ``try`` fails
here too: a module the suite cannot import is a module CI never runs.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {"numpy", "repro"}


def foreign_imports(package: Path) -> dict[str, list[str]]:
    """``{top-level module: [file:line, ...]}`` of every import of a module
    that is neither in the standard library nor in ``ALLOWED``."""
    found: dict[str, list[str]] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    where = f"{path.relative_to(package.parent)}:{node.lineno}"
                    found.setdefault(top, []).append(where)
    return found


def test_src_imports_only_the_standard_library_and_numpy():
    assert foreign_imports(PACKAGE) == {}


def test_the_guard_sees_a_guarded_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import os\nimport numpy.linalg\nfrom . import sibling\n"
        "try:\n    import networkx as nx\nexcept ImportError:\n    nx = None\n"
    )
    assert foreign_imports(package) == {"networkx": ["pkg/mod.py:5"]}
