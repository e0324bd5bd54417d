"""The reachability audit's bookkeeping (``benchmarks/reach.py``) on a tiny
synthetic package, with a hand-made trace: nothing is traced here."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

MOD = '''\
"""A module."""


def used():
    """Entered."""
    def inner():
        return 1
    return inner()


def unused():
    return 2


class Thing:
    class Nested:
        def hidden(self):
            return 3

    def a(self):
        return 4

    @staticmethod
    @functools.cache
    def b():
        return 5
'''


@pytest.fixture(scope="module")
def reach():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))  # reach.py imports code_lines
        spec = importlib.util.spec_from_file_location("reach", BENCHMARKS / "reach.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, "reach", module)  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def src(tmp_path):
    root = tmp_path / "src"
    (root / "pkg" / "sub").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("def top():\n    return 0\n")
    (root / "pkg" / "mod.py").write_text(MOD)
    (root / "pkg" / "sub" / "__init__.py").write_text("")
    (root / "pkg" / "sub" / "deep.py").write_text("def helper(x):\n    return x\n")
    return root


def entered(functions, *names):
    return {(f.path, f.line) for f in functions if f"{f.module}.{f.qualname}" in names}


def test_top_level_functions_and_methods_are_enumerated(reach, src):
    functions = {f"{f.module}.{f.qualname}": f for f in reach.enumerate_functions(src)}
    assert set(functions) == {
        "pkg.top",
        "pkg.mod.used",
        "pkg.mod.unused",
        "pkg.mod.Thing.a",
        "pkg.mod.Thing.b",
        "pkg.sub.deep.helper",
    }
    # the line a code object starts on: the first decorator's
    assert functions["pkg.mod.Thing.b"].line == MOD.splitlines().index("    @staticmethod") + 1
    # code lines as code_lines.py counts them: the docstring is not code
    assert functions["pkg.mod.used"].code_lines == 4
    assert functions["pkg.mod.Thing.b"].code_lines == 4


ALLOW = """\
# a comment, then one entry at each level
pkg.sub            oracle: a package covers its submodules
pkg.mod.Thing      cli: a class covers its methods
pkg.mod.unused     to-decide: a function covers itself
"""


def test_entries_cover_modules_classes_and_functions(reach, src, tmp_path, capsys):
    functions = reach.enumerate_functions(src)
    allow = tmp_path / "allow.txt"
    allow.write_text(ALLOW)
    assert reach.report(src, entered(functions, "pkg.top", "pkg.mod.used"), allow) == 0
    out = capsys.readouterr().out
    assert "entered 2 of 6" in out and "FAIL" not in out
    for line in ("helper  [oracle]", "Thing.a  [cli]", "Thing.b  [cli]", "unused  [to-decide]"):
        assert line in out


def test_an_unentered_function_missing_from_the_list_fails(reach, src, tmp_path, capsys):
    functions = reach.enumerate_functions(src)
    allow = tmp_path / "allow.txt"
    allow.write_text(ALLOW.replace("pkg.mod.unused", "# pkg.mod.unused"))
    assert reach.report(src, entered(functions, "pkg.top", "pkg.mod.used"), allow) == 1
    assert "FAIL: pkg.mod.unused (2 code lines) was not entered" in capsys.readouterr().out
    # entering it is the other way to pass
    trace = entered(functions, "pkg.top", "pkg.mod.used", "pkg.mod.unused")
    assert reach.report(src, trace, allow) == 0


@pytest.mark.parametrize(
    "line, problem",
    [
        ("pkg.mod.gone  fault: was deleted", "pkg.mod.gone names no module"),
        ("pkg.other  oracle: no such module", "pkg.other names no module"),
        ("pkg.mod.Thing.Nested.hidden  oracle: not top level", "pkg.mod.Thing.Nested.hidden names"),
        ("pkg.mod.used", "pkg.mod.used: no '<kind>: <reason>'"),
        ("pkg.mod.used  because: not a kind", "pkg.mod.used: no '<kind>: <reason>'"),
        ("pkg.mod.unused  fault: listed again", "pkg.mod.unused is listed twice"),
    ],
)
def test_a_stale_or_malformed_entry_fails(reach, src, tmp_path, capsys, line, problem):
    functions = reach.enumerate_functions(src)
    allow = tmp_path / "allow.txt"
    allow.write_text(ALLOW + line + "\n")
    assert reach.report(src, entered(functions, "pkg.top", "pkg.mod.used"), allow) == 1
    assert problem in capsys.readouterr().out


def test_the_trace_files_are_read_per_process(reach, tmp_path):
    (tmp_path / "entered-11.txt").write_text("/a/b.py:3\n/a/b.py:9\n")
    (tmp_path / "entered-12.txt").write_text("/a/b.py:3\n/c:d/e.py:1\n")
    (tmp_path / "other.txt").write_text("/x.py:1\n")
    assert reach.read_entered(tmp_path) == {("/a/b.py", 3), ("/a/b.py", 9), ("/c:d/e.py", 1)}
