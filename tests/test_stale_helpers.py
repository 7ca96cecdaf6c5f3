"""Every private helper in the package is still used somewhere in it.

A private function or class (a name with one leading underscore, not a
dunder) that nothing in ``src/goursat`` refers to beyond its own
definition is dead code: its only callers were deleted.
"""

import ast
from pathlib import Path

import goursat

PACKAGE = Path(goursat.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_helper_is_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no private helpers found; is the package path right?"
    stale = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not stale, f"private helpers with no reference in the package: {stale}"
