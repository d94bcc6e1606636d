"""Every private function, method and class of the package is used: each
name with one leading underscore that src/horizonlab defines is referenced
somewhere in it, as a name, an attribute or an import. A mention in a
docstring or comment does not count."""

from __future__ import annotations

import ast
import pathlib

import horizonlab

_SRC = pathlib.Path(horizonlab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_definition_is_referenced() -> None:
    defined, used = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert {name: where for name, where in defined.items() if name not in used} == {}
