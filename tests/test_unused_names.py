"""No module of flapwear keeps an unused import or an unused private module-level name.

A stand-in for a linter's unused-name check, read from each module's AST.
An import is used when its module reads the name or lists it in
``__all__``; a private (``_``-prefixed) module-level name when any module
of the package reads it, imports it or reads it as an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flapwear"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loads(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, reads as an attribute or imports from a sibling."""
    names = _loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, but for ``from __future__``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level names the module defines with a single leading underscore."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in defined if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    read = _loads(tree) | _exported(tree)
    assert [name for name in _imports(tree) if name not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_module_level_name_is_read(path):
    read_anywhere = set().union(*(_references(_tree(module)) for module in MODULES))
    unused = [name for name in _private_definitions(_tree(path)) if name not in read_anywhere]
    assert unused == []


def test_an_unused_table_is_caught():
    tree = ast.parse("import numpy as np\nimport os\n_TABLE = np.zeros(3)\n")
    assert [name for name in _imports(tree) if name not in _loads(tree)] == ["os"]
    assert [n for n in _private_definitions(tree) if n not in _references(tree)] == ["_TABLE"]
