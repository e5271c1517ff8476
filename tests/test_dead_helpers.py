"""Every private module-level name in src/ccm is used somewhere.

A helper whose callers are gone stays importable and keeps passing its
own tests, so nothing else notices it.  Names starting with one
underscore are private to the package, so a name that no module of the
package references outside its own definition is dead.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccm"


def _module_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_private_module_names_are_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _module_private_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert not dead, f"unused private names: {dead}"
