"""Every name that a module of ``src/kernrec``, ``tests`` or ``tools`` imports
is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/kernrec", "tests", "tools") for path in (ROOT / folder).glob("*.py")
)


def unused_imports(text: str) -> list[str]:
    """The names that the module ``text`` imports and never reads, each with
    its line.  A name listed in ``__all__`` is read; ``from __future__``
    imports switch features and bind no name."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_an_unused_import_is_found():
    text = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .errors import KernrecError, ValidationError\n"
        "__all__ = ['np']\n"
        "raise ValidationError\n"
    )
    assert unused_imports(text) == ["KernrecError (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
