"""Every module of the package uses each name it imports or lists it in __all__,
every private module-level function or constant is read somewhere in it,
and every public function is read by the package, the acceptance gate or
the benchmark.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules:
they catch the imports, helpers and public functions that a deletion
leaves behind.
"""

import ast
import inspect
from pathlib import Path

import pytest

import tmfejer

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tmfejer"


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


def unread_public(names, sources: dict[str, str], gate: str, bench: dict[str, str]) -> list[str]:
    """Public functions `names` that nothing reads.

    A name counts as read where a package module in `sources` loads it,
    by name or attribute, outside the function's own definition; where
    the acceptance gate `gate` loads it; or where a perfbench module in
    `bench` reads it as an attribute or names it as a "module.name"
    string of a package module.  Imports and export lists read nothing.
    """
    names = set(names)
    read = set()

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for text in [*sources.values(), gate]:
        visit(ast.parse(text), frozenset())
    for text in bench.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.rpartition(".")
                if module in sources:
                    read.add(name)
    return sorted(names - read)


def test_guard_finds_an_unread_public_function():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef left():\n    return left()\n",
        "b": "from tmfejer.a import left, used\n\n__all__ = ['left']\nused()\n",
    }
    names = ["used", "left", "gated", "benched", "named"]
    gate = "import tmfejer\n\ntmfejer.gated()\n"
    bench = {"run": "lib.a.benched()\nWORK = {'a.named': None, 'c.left': None}\n"}
    assert unread_public(names, sources, gate, bench) == ["left"]


def test_every_public_function_has_a_reader():
    # No public function that the library, the acceptance gate and the
    # benchmark can all do without.
    names = [n for n in tmfejer.__all__ if inspect.isfunction(getattr(tmfejer, n))]
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    gate = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    bench = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")}
    assert unread_public(names, sources, gate, bench) == []
