"""Package surface: liftlyap ships only what its own pipeline uses.

Every top-level function, class and module-level assignment (a constant or
a type alias) in ``src/liftlyap`` must be referenced somewhere in the
package outside its own definition: by name, by attribute, or by its name
as a string (the stage table in ``cli`` names its stages so).  Imports do
not count as uses.  Code that only tests call belongs under ``tests/``.
The command-line entry points, the names the package ``__init__`` exports
and dunders such as ``__version__`` are the allowed exceptions.

Every defaulted parameter of a top-level function, or of a method of a
top-level class, must also be passed by some call in the package, by
position or by keyword; a default that no caller overrides is a constant.
A method is matched by its name (``__init__`` by its class name), and its
``self`` or ``cls`` is not a position a call fills.  ``cli.main`` takes
``argv`` only from tests and embedders, so it is exempt.

Every name a module imports must be read in that module.  ``from
__future__`` imports and the names the package ``__init__`` re-exports are
exempt.
"""

import ast
from pathlib import Path

import liftlyap

PACKAGE = Path(liftlyap.__file__).parent
ENTRY_POINTS = {"cli.main", "cli.entry", "cli.fixture_path"}
DEFAULTS_EXEMPT = {"cli.main"}


def _exports(package: Path) -> set[str]:
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return {
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))]


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """Top-level definitions of the package that nothing in it references."""
    definitions = []  # (module, name, first line, last line)
    uses = []  # (module, name, line)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _defined_names(node):
                definitions.append((module, name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                uses.append((module, node.value, node.lineno))
    allowed = ENTRY_POINTS | _exports(package)
    return [
        f"{module}.{name}"
        for module, name, first, last in definitions
        if f"{module}.{name}" not in allowed
        and not any(
            used == name and not (used_in == module and first <= line <= last) for used_in, used, line in uses
        )
    ]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call passes parameter ``name``, at ``position`` when it may be positional."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    return (position is not None and len(call.args) > position) or any(kw.arg == name for kw in call.keywords)


def _defaulted(function: ast.FunctionDef | ast.AsyncFunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """(parameter, call position or None when keyword-only) of each defaulted parameter.

    ``bound`` leading parameters (a method's ``self`` or ``cls``) are not filled by a call.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    return out + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def unpassed_defaults(package: Path = PACKAGE) -> list[str]:
    """Defaulted parameters of top-level functions and class methods that no call in the package passes."""
    defaulted = []  # (qualified name, called name, parameter, position or None when keyword-only)
    calls: dict[str, list[ast.Call]] = {}  # by the called name or attribute
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, functions):
                defaulted += [(f"{path.stem}.{node.name}", node.name, *arg) for arg in _defaulted(node, 0)]
            elif isinstance(node, ast.ClassDef):
                for method in (item for item in node.body if isinstance(item, functions)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in method.decorator_list)
                    called = node.name if method.name == "__init__" else method.name
                    qualified = f"{path.stem}.{node.name}.{method.name}"
                    defaulted += [(qualified, called, *arg) for arg in _defaulted(method, 0 if static else 1)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    return [
        f"{qualified}({name})"
        for qualified, called, name, position in defaulted
        if qualified not in DEFAULTS_EXEMPT and not any(_passes(call, name, position) for call in calls.get(called, []))
    ]


def unread_imports(package: Path = PACKAGE) -> list[str]:
    """Names a package module imports and never reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and path.stem != "__init__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.stem}.{name}" for name in imported if name not in read]
    return out


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []


def test_unread_module_assignments_are_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text('__version__ = "1"\n', encoding="utf-8")
    module = ["LIMIT = 3", "UNUSED = 4", "Alias = list[int]", "Typed: int = 5"]
    module += ["def f(x: Alias) -> int:", "    return x[0] + LIMIT"]
    (tmp_path / "mod.py").write_text("\n".join(module) + "\n", encoding="utf-8")
    (tmp_path / "user.py").write_text("from .mod import f\n\nf([1])\n", encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == ["mod.UNUSED", "mod.Typed"]


def test_every_default_is_passed_by_some_call():
    assert unpassed_defaults() == []


def test_defaults_no_call_passes_are_flagged(tmp_path):
    module = ["def f(x, y=1, *, z=2, w=3):", "    return x + y + z + w"]
    module += ["def g(a, b=0):", "    return a + b", "", "f(1, 2, w=4)", "g(1)", "g(*[1, 2])"]
    module += ["def h(c=0):", "    return c", "", "h()"]
    module += ["class K:", "    def __init__(self, a, b=0):", "        self.s = a + b"]
    module += ["    def m(self, x, y=1, z=2):", "        return x + y + z"]
    module += ["    @staticmethod", "    def n(x, y=1):", "        return x + y", ""]
    module += ["K(1).m(1, 2)", "K.n(1, 2)"]
    (tmp_path / "mod.py").write_text("\n".join(module) + "\n", encoding="utf-8")
    assert unpassed_defaults(tmp_path) == ["mod.f(z)", "mod.h(c)", "mod.K.__init__(b)", "mod.K.m(z)"]


def test_every_import_is_read():
    assert unread_imports() == []


def test_unread_imports_are_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\n", encoding="utf-8")
    module = ["from __future__ import annotations", "import math", "import os.path", "import numpy as np"]
    module += ["from fractions import Fraction", "from typing import Sequence as Seq, Iterable"]
    module += ["def f(x: Seq) -> float:", "    return np.sqrt(math.pi) + len(x)"]
    (tmp_path / "mod.py").write_text("\n".join(module) + "\n", encoding="utf-8")
    assert unread_imports(tmp_path) == ["mod.os", "mod.Fraction", "mod.Iterable"]
