"""Layout rules of the library that no unit test of one module sees.

Each public function or class of `src/dynaperc` serves a command, a demo or
the benchmark.  One that only `tests/` reaches is either an independent
reference, which lives in `tests/helpers.py`, or it is dead and goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynaperc"


def _used_names(paths) -> set:
    """Every Name, Attribute and ImportFrom identifier in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_defs() -> list:
    """(module, name) of each public top-level def or class of the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path.stem, node.name))
    return out


def test_no_public_function_is_reached_only_by_tests():
    program = _used_names([*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
                           *(ROOT / "benchmarks").rglob("*.py")])
    tests = _used_names((ROOT / "tests").glob("*.py"))
    only_tests = [f"{mod}.{name}" for mod, name in _public_defs()
                  if name in tests and name not in program]
    assert not only_tests, (
        f"reached only from tests/: {only_tests}; move an independent "
        "reference to tests/helpers.py, or delete the code and its tests")
