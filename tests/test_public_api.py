"""Every public name in ``ramc`` has a caller in the package or the benchmark.

A public function or class that only tests call is test scaffolding; it
belongs in ``tests/`` (see ``tests/oracles.py``), not in the package.
Likewise a public dataclass field that only tests read is dead weight.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramc"


def _trees(directory):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in directory.glob("*.py")}


def _attributes_read(trees) -> set:
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _is_dataclass(node) -> bool:
    for decorator in node.decorator_list:
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def _referenced(trees) -> set:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_public_names() -> list:
    """``module.name`` of each public module-level function or class in
    ``ramc`` that no ``Name``, ``Attribute`` or ``from`` import in the
    package or in ``perfbench/*.py`` refers to."""
    package = _trees(PACKAGE)
    referenced = _referenced([*package.values(), *_trees(ROOT / "perfbench").values()])
    return sorted(
        f"{path.stem}.{node.name}"
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )


def unread_dataclass_fields() -> list:
    """``module.Class.field`` of each field of a public dataclass in
    ``ramc`` that no ``Attribute`` load in the package or in
    ``perfbench/*.py`` reads."""
    package = _trees(PACKAGE)
    read = _attributes_read([*package.values(), *_trees(ROOT / "perfbench").values()])
    return sorted(
        f"{path.stem}.{node.name}.{item.target.id}"
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    )


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced_public_names() == []


def test_every_public_dataclass_field_is_read_outside_tests():
    assert unread_dataclass_fields() == []
