"""Layout rules of the library that no unit test of one module sees.

Each public function or class of `src/dynaperc`, and each public method of
such a class, serves a command, a demo or the benchmark.  One that only
`tests/` reaches is either an independent reference, which lives in
`tests/helpers.py`, or it is dead and goes.  And the package holds no
`assert` statement, which `python -O` removes.
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


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_defs() -> list:
    """(qualified name, name) of each public top-level def or class of the
    package, and of each public method of a public class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text(), str(path)).body):
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{meth.name}", meth.name)
                        for meth in _public(node.body)]
    return out


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements; an invariant must be an explicit check
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/dynaperc: {found}"


def test_no_public_function_is_reached_only_by_tests():
    program = _used_names([*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
                           *(ROOT / "benchmarks").rglob("*.py")])
    tests = _used_names((ROOT / "tests").glob("*.py"))
    only_tests = [qualified for qualified, name in _public_defs()
                  if name in tests and name not in program]
    assert not only_tests, (
        f"reached only from tests/: {only_tests}; move an independent "
        "reference to tests/helpers.py, or delete the code and its tests")


def test_no_attribute_shadows_a_method():
    # an instance attribute named like a method of its class hides that
    # method on every instance that sets it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {node.name for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            found += [f"{path.name}:{node.lineno} {cls.name}.{node.attr}"
                      for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"
                      and node.attr in methods]
    assert not found, f"attributes that shadow methods: {found}"


def test_no_module_imports_a_name_it_never_uses():
    # `__init__.py` imports to re-export; every other module uses what it
    # imports, by name
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, f"imported and never used: {found}"
