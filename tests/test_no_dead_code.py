"""Every definition in src/orbitforge has a reader: each top-level function
and class, and each method that is not a dunder, is referenced by name in
src/, scripts/ or perfbench/.  The package's __init__ re-exports do not
count, and neither do the tests: code that only a test calls lives in the
test."""

import ast
import shutil
from pathlib import Path

from test_one_lift import _last_name

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "scripts", "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree) -> list:
    """Top-level functions and classes, and the non-dunder methods of the
    top-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(sub.name for sub in node.body
                       if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(sub.name))
    return out


def _references(tree) -> set:
    """Every name read as x or as obj.x, except inside a definition of that
    same name: a recursive call is not a reader."""
    out = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, enclosing | {child.name})
                continue
            name = _last_name(child)
            if name is not None and name not in enclosing:
                out.add(name)
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _unread(root: Path) -> list:
    """module.name for each definition in root/src/orbitforge that nothing
    under root's reader directories references."""
    pkg = root / "src" / "orbitforge"
    used = set()
    for folder in READERS:
        for path in sorted((root / folder).rglob("*.py")):
            if path != pkg / "__init__.py":
                used |= _references(ast.parse(path.read_text()))
    return [f"{path.stem}.{name}" for path in sorted(pkg.glob("*.py"))
            for name in _definitions(ast.parse(path.read_text())) if name not in used]


def test_every_definition_has_a_reader():
    assert _unread(ROOT) == []


def test_the_guard_sees_a_planted_definition(tmp_path):
    for folder in READERS:
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    pkg = tmp_path / "src" / "orbitforge"
    assert _unread(tmp_path) == []
    with open(pkg / "linalg.py", "a") as f:
        f.write("\n\ndef planted_helper(m):\n    return planted_helper(m)\n"
                "\n\nclass Planted:\n    def __repr__(self):\n        return 'p'\n\n"
                "    def planted_method(self):\n        return Planted().planted_method()\n")
    with open(pkg / "__init__.py", "a") as f:
        f.write("from .linalg import planted_helper, Planted\n")
    # neither a re-export nor a use inside the definition itself is a reader;
    # the dunder needs none
    assert _unread(tmp_path) == ["linalg.planted_helper", "linalg.Planted", "linalg.planted_method"]
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _reader():\n    return Planted().planted_method()\n")
    assert _unread(tmp_path) == ["algebra._reader", "linalg.planted_helper"]
