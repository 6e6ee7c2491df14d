"""Every module of the package uses each name it imports or lists it in __all__,
and every private module-level function or constant is read somewhere in it.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules:
they catch the imports and helpers that a deletion leaves behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tmfejer"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that it never reads or exports."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and constants that no module reads.

    `sources` maps module names of the package to their text.  A name
    counts as read where its own module loads it or another module
    imports it from there by name.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tmfejer."):
                read.update((node.module.partition(".")[2], a.name) for a in node.names)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            found += [
                f"{mod}.py line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and (mod, name) not in read
            ]
    return sorted(found)


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["line 2: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_finds_an_unread_private():
    sources = {
        "a": "_USED = 1\n_LEFT = 2\n\n\ndef _helper():\n    return _USED\n",
        "b": "from tmfejer.a import _helper\n\n_helper()\n",
    }
    assert unread_privates(sources) == ["a.py line 2: _LEFT"]


def test_no_unread_privates():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_privates(sources) == []
