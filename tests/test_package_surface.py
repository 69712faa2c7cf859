"""Package surface: liftlyap ships only what its own pipeline uses.

Every top-level function and class in ``src/liftlyap`` must be referenced
somewhere in the package outside its own definition: by name, by attribute,
or by its name as a string (the stage table in ``cli`` names its stages so).
Imports do not count as uses.  Code that only tests call belongs under
``tests/``.  The command-line entry points and the names the package
``__init__`` exports are the allowed exceptions.
"""

import ast
from pathlib import Path

import liftlyap

PACKAGE = Path(liftlyap.__file__).parent
ENTRY_POINTS = {"cli.main", "cli.entry", "cli.fixture_path"}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def unreferenced_definitions() -> list[str]:
    """Top-level functions and classes of the package that nothing in it references."""
    definitions = []  # (module, name, first line, last line)
    uses = []  # (module, name, line)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                uses.append((module, node.value, node.lineno))
    allowed = ENTRY_POINTS | _exports()
    return [
        f"{module}.{name}"
        for module, name, first, last in definitions
        if f"{module}.{name}" not in allowed
        and not any(
            used == name and not (used_in == module and first <= line <= last) for used_in, used, line in uses
        )
    ]


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []
