"""Every name that a module of ``src/kernrec``, ``tests`` or ``tools`` imports
is used in it, and every public name of ``tests/oracles.py`` has a test that
imports it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/kernrec", "tests", "tools") for path in (ROOT / folder).glob("*.py")
)


def _imports(tree: ast.AST):
    """(module, alias, line) of each import in ``tree``, with the module that
    follows ``from``, if any.  ``from __future__`` imports switch features and
    bind no name."""
    for node in ast.walk(tree):
        module = node.module if isinstance(node, ast.ImportFrom) else None
        if isinstance(node, (ast.Import, ast.ImportFrom)) and module != "__future__":
            for alias in node.names:
                yield module, alias, node.lineno


def unused_imports(text: str) -> list[str]:
    """The names that the module ``text`` imports and never reads, each with
    its line.  A name listed in ``__all__`` is read."""
    tree = ast.parse(text)
    imported = {
        alias.asname or alias.name.partition(".")[0]: line for _, alias, line in _imports(tree)
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def uncalled_oracles(oracles: str, tests: list[str]) -> list[str]:
    """The public names that the module ``oracles`` defines at top level and
    that no text of ``tests`` imports with ``from oracles import``."""
    defined = []
    for node in ast.parse(oracles).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets if isinstance(target, ast.Name)]
    imported = {
        alias.name for text in tests for module, alias, _ in _imports(ast.parse(text))
        if module == "oracles"
    }
    return [name for name in defined if not name.startswith("_") and name not in imported]


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


def test_an_uncalled_oracle_is_found():
    oracles = "import numpy as np\nTABLE = {}\n_SCALE = 2.0\ndef retired(): ...\nclass Ref: ...\n"
    tests = ["from oracles import TABLE\n", "def test():\n    from oracles import Ref\n",
             "from kernrec.grid import retired\n"]
    assert uncalled_oracles(oracles, tests) == ["retired"]


def test_every_oracle_has_a_caller():
    tests = [path.read_text(encoding="utf-8") for path in (ROOT / "tests").glob("test_*.py")]
    oracles = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert uncalled_oracles(oracles, tests) == []
