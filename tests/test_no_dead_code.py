"""Every definition in src/orbitforge has a reader: each top-level function
and class, and each method that is not a dunder, is referenced by name in
src/, scripts/ or perfbench/.  The package's __init__ re-exports do not
count, and neither do the tests: code that only a test calls lives in the
test.  Likewise every optional parameter, the defaulted fields of a
record's __init__ among them, has a setter: some call in those folders
passes it, so no value sits behind an option that only its default ever
fills.  And every attribute a method stores on self, a record's fields
among them, has a reader: some .name read in those folders, so no value is
kept that nothing reads back.  A reader is matched
by name, so a name that two definitions share is listed in SHARED_NAMES,
each definition with a function of src/orbitforge that reads it."""

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


# Each definition in src/orbitforge whose name another definition there
# shares (module.Class.method, or module.name at top level), mapped to one
# function of src/orbitforge, named the same way, whose body reads that name:
# a reader matched by name alone would let one of them go unread unseen.
SHARED_NAMES = {
    "algebra.ClassicalAlgebra._build_basis": "algebra.ClassicalAlgebra.__init__",
    "enveloping.WSetup._build_basis": "enveloping.WSetup.__init__",
    "algebra.ClassicalAlgebra._build_structure": "algebra.ClassicalAlgebra.structure",
    "enveloping.WSetup._build_structure": "enveloping.WSetup.__init__",
    "centralizer.CentralizerBasis.dim": "centralizer.compute_centralizer",
    "slices.MSubalgebra.dim": "cli.cmd_slice",
    "centralizer.CentralizerBasis.graded_dims": "cli.cmd_centralizer",
    "orbits.graded_dims": "cli.cmd_orbit",
    "enveloping.ThetaGenerator.kazhdan_degree": "enveloping.WSetup._check_shape",
    "enveloping.WSetup.kazhdan_degree": "cli.cmd_wgen",
    "centralizer.CentralizerBasis.layer": "centralizer.check_generation",
    "orbits.DynkinGrading.layer": "orbits.ad_e_block",
    "linalg.VectorSpan.rank": "orbits.jordan_type",
    "linalg.SNFResult.rank": "slices.integral_saturation",
    "linalg.SparseMatrix.to_json": "cli.cmd_algebra",
    "partitions.DynkinPyramid.to_json": "cli.cmd_orbit",
}


def _qualified(pkg: Path):
    """(definitions, functions): the definitions of _definitions under their
    qualified names, and every top-level function and method of a top-level
    class, dunders included, as {qualified name: node}."""
    definitions, functions = [], {}
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(f"{path.stem}.{node.name}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        functions[f"{path.stem}.{node.name}.{sub.name}"] = sub
                        if not _is_dunder(sub.name):
                            definitions.append(f"{path.stem}.{node.name}.{sub.name}")
    return definitions, functions


def _shared_name_problems(root: Path, table: dict) -> list:
    """What keeps table from being SHARED_NAMES for root/src/orbitforge: a
    definition that shares its name and has no entry, an entry that shares
    no name, and an entry whose reader is not a function there, is the
    definition itself or does not read the name."""
    definitions, functions = _qualified(root / "src" / "orbitforge")
    count = {}
    for q in definitions:
        name = q.rsplit(".", 1)[1]
        count[name] = count.get(name, 0) + 1
    shared = [q for q in definitions if count[q.rsplit(".", 1)[1]] > 1]
    problems = [f"{q} shares its name and has no entry" for q in shared if q not in table]
    problems += [f"{q} shares no name" for q in table if q not in shared]
    for q in shared:
        reader, name = table.get(q), q.rsplit(".", 1)[1]
        if reader is not None and (reader == q or reader not in functions
                                   or name not in _references(functions[reader])):
            problems.append(f"{q}: {reader} does not read {name}")
    return problems


def test_every_shared_name_has_a_reader_per_definition():
    assert _shared_name_problems(ROOT, SHARED_NAMES) == []


def test_the_shared_name_guard_sees_a_test_only_method(tmp_path):
    for folder in READERS:
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    pkg = tmp_path / "src" / "orbitforge"
    assert _shared_name_problems(tmp_path, SHARED_NAMES) == []
    anchor = "    def __init__(self, ring: Ring):\n        if not ring.is_field:"
    source = (pkg / "linalg.py").read_text()
    assert source.count(anchor) == 1
    (pkg / "linalg.py").write_text(source.replace(
        anchor, "    @property\n    def rows(self) -> list:\n        return [self._rows[p] for p in self.pivots]\n\n" + anchor))
    # by name alone SparseMatrix.rows's readers read it too
    assert _unread(tmp_path) == []
    assert _shared_name_problems(tmp_path, SHARED_NAMES) == [
        "linalg.SparseMatrix.rows shares its name and has no entry",
        "linalg.VectorSpan.rows shares its name and has no entry",
    ]
    # an entry needs a function that reads the name, and not the definition
    table = {**SHARED_NAMES, "linalg.SparseMatrix.rows": "orbits.orbit_dimension",
             "linalg.VectorSpan.rows": "orbits.jordan_type"}
    assert _shared_name_problems(tmp_path, table) == [
        "linalg.SparseMatrix.rows: orbits.orbit_dimension does not read rows",
        "linalg.VectorSpan.rows: orbits.jordan_type does not read rows",
    ]
    table["linalg.SparseMatrix.rows"] = "linalg.SparseMatrix.rows"
    assert _shared_name_problems(tmp_path, table)[0] == \
        "linalg.SparseMatrix.rows: linalg.SparseMatrix.rows does not read rows"
    # a stale entry is refused as well
    assert _shared_name_problems(ROOT, {**SHARED_NAMES, "linalg.VectorSpan.rows": "orbits.jordan_type"}) == [
        "linalg.VectorSpan.rows shares no name"]


def _optional_parameters(tree) -> list:
    """(owner, name, position) of each defaulted parameter of a top-level
    function or of a method of a top-level class.  The owner is the name a
    call uses: the function, the method, or the class for __init__.
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
    """module.owner.name for each optional parameter in root/src/orbitforge that no call under root's reader directories sets."""
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
    # a record's defaulted field is its class's optional parameter
    with open(pkg / "linalg.py", "a") as f:
        f.write("\n\nclass PlantedRecord:\n    __slots__ = ('m', 'scale')\n\n"
                "    def __init__(self, m, scale=1):\n        self.m, self.scale = m, scale\n")
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _record():\n    return PlantedRecord(0)\n")
    assert _unset(tmp_path) == ["linalg.PlantedRecord.scale"]
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _scaled_record():\n    return PlantedRecord(0, 2)\n")
    assert _unset(tmp_path) == []


def _stored_on_self(tree) -> set:
    """Each name stored as self.name = ..., also in a tuple target or by an
    augmented or annotated assignment, or as object.__setattr__(self,
    "name", ...), the store of an immutable record's __init__."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _last_name(node.func) == "__setattr__" and len(node.args) == 3
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            out.add(node.args[1].value)
            continue
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
    # the fields of a record, an immutable one's stored by object.__setattr__
    with open(pkg / "linalg.py", "a") as f:
        f.write("\n\nclass PlantedRecord:\n    __slots__ = ('held', 'frozen_held')\n\n"
                "    def __init__(self, held, frozen_held):\n        self.held = held\n"
                "        object.__setattr__(self, 'frozen_held', frozen_held)\n")
    assert _unread_attributes(tmp_path) == ["linalg.frozen_held", "linalg.held"]
    with open(pkg / "algebra.py", "a") as f:
        f.write("\n\ndef _record_reader(p):\n    return p.held, p.frozen_held\n")
    assert _unread_attributes(tmp_path) == []
