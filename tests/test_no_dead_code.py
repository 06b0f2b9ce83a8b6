"""Every definition in src/orbitforge has a reader: each top-level function
and class, and each method that is not a dunder, is referenced by name in
src/, scripts/ or perfbench/.  The package's __init__ re-exports do not
count, and neither do the tests: code that only a test calls lives in the
test.  Likewise every optional parameter and every dataclass field the
constructor takes has a setter: some call in those folders passes it, so
no value sits behind an option that only its default ever fills.  And every
attribute a method stores on self has a reader: some .name read in those
folders, so no value is kept that nothing reads back."""

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


def _is_init_false(value) -> bool:
    """True for field(..., init=False)."""
    return (isinstance(value, ast.Call) and _last_name(value.func) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in value.keywords))


def _is_dataclass(node) -> bool:
    return any(_last_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)


def _optional_parameters(tree) -> list:
    """(owner, name, position) of each defaulted parameter of a top-level
    function or of a method of a top-level class, and of each defaulted
    init=True field of a top-level dataclass.  The owner is the name a call
    uses: the function, the method, or the class for __init__ and fields.
    The position counts the arguments a call passes before it (self and cls
    not counted); None for a keyword-only parameter."""
    out = []

    def of_function(fn, owner, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if bound and positional else 0
        for i in range(len(positional) - len(args.defaults), len(positional)):
            out.append((owner, positional[i].arg, i - skip))
        out.extend((owner, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            of_function(node, node.name, False)
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(_last_name(d) == "staticmethod" for d in sub.decorator_list)
                of_function(sub, node.name if sub.name == "__init__" else sub.name, not static)
        if _is_dataclass(node):
            fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign) and not _is_init_false(sub.value)]
            out.extend((node.name, f.target.id, i) for i, f in enumerate(fields) if f.value is not None)
    return out


def _settings(tree) -> dict:
    """name -> [(positional count, keywords, splat)] for each call of that
    name, as f(...), x.f(...) or functools.partial(f, ...), outside a
    definition of that same name: a recursive call is not a setter.  splat is
    True when the call passes *args or **kwargs, which may set anything."""
    out = {}

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Call):
                name, args = _last_name(child.func), child.args
                if name == "partial" and args:
                    name, args = _last_name(args[0]), args[1:]
                if name is not None and name not in enclosing:
                    splat = any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in child.keywords)
                    out.setdefault(name, []).append((len(args), {k.arg for k in child.keywords}, splat))
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _unset(root: Path) -> list:
    """module.owner.name for each optional parameter or dataclass field in
    root/src/orbitforge that no call under root's reader directories sets."""
    pkg = root / "src" / "orbitforge"
    calls = {}
    for folder in READERS:
        for path in sorted((root / folder).rglob("*.py")):
            for name, found in _settings(ast.parse(path.read_text())).items():
                calls.setdefault(name, []).extend(found)

    def is_set(owner, name, position):
        return any(splat or name in keywords or (position is not None and count > position)
                   for count, keywords, splat in calls.get(owner, ()))

    return [f"{path.stem}.{owner}.{name}" for path in sorted(pkg.glob("*.py"))
            for owner, name, position in _optional_parameters(ast.parse(path.read_text()))
            if not is_set(owner, name, position)]


def test_every_optional_parameter_has_a_setter():
    assert _unset(ROOT) == []


def test_the_guard_sees_a_planted_parameter(tmp_path):
    for folder in READERS:
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    pkg = tmp_path / "src" / "orbitforge"
    assert _unset(tmp_path) == []
    with open(pkg / "linalg.py", "a") as f:
        f.write("\n\ndef planted(m, *, scale=1):\n    return planted(m, scale=scale)\n")
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _caller():\n    return planted(0)\n")
    # a call that leaves the keyword at its default, and the recursive call
    # that passes it on, do not set it
    assert _unset(tmp_path) == ["linalg.planted.scale"]
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _setter():\n    return planted(0, scale=2)\n")
    assert _unset(tmp_path) == []


def _stored_on_self(tree) -> set:
    """Each name stored as self.name = ..., also in a tuple target or by an
    augmented or annotated assignment."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            out.update(sub.attr for sub in ast.walk(target) if isinstance(sub, ast.Attribute)
                       and isinstance(sub.value, ast.Name) and sub.value.id == "self")
    return out


def _attribute_reads(tree) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_attributes(root: Path) -> list:
    """module.name for each attribute stored on self in root/src/orbitforge
    that no .name read under root's reader directories reads back."""
    pkg = root / "src" / "orbitforge"
    reads = set()
    for folder in READERS:
        for path in sorted((root / folder).rglob("*.py")):
            reads |= _attribute_reads(ast.parse(path.read_text()))
    return [f"{path.stem}.{name}" for path in sorted(pkg.glob("*.py"))
            for name in sorted(_stored_on_self(ast.parse(path.read_text()))) if name not in reads]


def test_every_stored_attribute_has_a_reader():
    assert _unread_attributes(ROOT) == []


def test_the_guard_sees_a_planted_attribute(tmp_path):
    for folder in READERS:
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    pkg = tmp_path / "src" / "orbitforge"
    assert _unread_attributes(tmp_path) == []
    with open(pkg / "linalg.py", "a") as f:
        f.write("\n\nclass Planted:\n    def __init__(self):\n        self.kept, self.shown = 1, 2\n"
                "        self.kept += 1\n\n    def __repr__(self):\n        return str(self.shown)\n")
    # storing it again is not reading it
    assert _unread_attributes(tmp_path) == ["linalg.kept"]
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _reader(p):\n    return p.kept\n")
    assert _unread_attributes(tmp_path) == []
