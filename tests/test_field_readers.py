"""Every name an object of src/orbitforge stores is read back from an object
of that same class in a production run.

tests/test_no_dead_code.py matches a read by name alone, so a field that no
production code reads passes there as soon as another class reads a field
of the same name.  This guard counts reads per class instead: it wraps
__getattribute__ (and __setattr__ and __init__) of every class defined in
orbitforge, runs one compact slice of production in a fresh interpreter (a
default-suite verify at N <= 6, serially, and one call of each CLI
subcommand on a small input), and lists each stored name, a slot or a key
of an instance __dict__, that no instance of the class had read."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from orbitforge import cli, linalg, runner
from orbitforge.rings import QQ

ROOT = Path(__file__).resolve().parents[1]
LAYERS = sorted(path.stem for path in (ROOT / "src" / "orbitforge").glob("*.py") if not path.stem.startswith("__"))

SUBCOMMANDS = (
    ["algebra", "4", "-1"],
    ["orbit", "2,1,1", "-1"],
    ["centralizer", "2,1,1", "-1"],
    ["slice", "2,1,1", "-1"],
    ["wgen", "2,1,1", "-1"],
    ["explain", "2,1,1", "-1"],
    ["verma", "2,2", "-1", "--levi", "2", "--prime", "3"],
    ["induce", "--n", "4", "--eps", "-1", "--levi", "2"],
    ["rigidity", "2,2", "-1"],
)


def _classes() -> list:
    """Every class defined at the top level of a layer of orbitforge."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"orbitforge.{layer}")
        out += [obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__]
    return out


def _slots(cls) -> set:
    return {name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())}


def _unread_fields(run) -> list:
    """module.Class.name for each name stored on an instance of a class of
    _classes() while run() runs, a declared slot of a class whose instances
    it touches or a name it sets in an instance __dict__, that run() read
    from no instance of that class."""
    classes = _classes()
    reads, stores, seen = Counter(), set(), set()
    setters = {cls: cls.__setattr__ for cls in classes}

    def getter(obj, name):
        seen.add(type(obj))
        reads[(type(obj), name)] += 1
        return object.__getattribute__(obj, name)

    def setter_of(cls):
        def setter(obj, name, value):
            seen.add(type(obj))
            stores.add((type(obj), name))
            setters[cls](obj, name, value)
        return setter

    def init_of(init):
        def counted(obj, *args, **kwargs):
            seen.add(type(obj))
            init(obj, *args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            mp.setattr(cls, "__getattribute__", getter)
            mp.setattr(cls, "__setattr__", setter_of(cls))
            if "__init__" in cls.__dict__:
                mp.setattr(cls, "__init__", init_of(cls.__dict__["__init__"]))
        run()
    stored = {(cls, name) for cls in seen for name in _slots(cls)} | stores
    return sorted(f"{cls.__module__.removeprefix('orbitforge.')}.{cls.__name__}.{name}"
                  for cls, name in stored if not name.startswith("__") and not reads[(cls, name)])


def _production_slice():
    runner.WORKERS = 0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run_verify(cli.VerifyConfig(max_n=6))["passed"]
        for argv in SUBCOMMANDS:
            assert cli.main(argv) == 0, argv


def test_every_stored_field_is_read_by_its_own_class():
    # in a fresh interpreter: an object that another test built, such as an
    # algebra that build_algebra cached, would skip its __init__ in the run
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    code = "import test_field_readers as t; print(json.dumps(t._unread_fields(t._production_slice)))"
    proc = subprocess.run([sys.executable, "-c", "import json; " + code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class Planted:
    __slots__ = ("ring", "shown", "kept")

    def __init__(self, ring):
        self.ring = ring
        self.shown = 1
        self.kept = 2


class PlantedDict:
    def __init__(self):
        self.held = 1

    def grow(self):
        self.late = self.held


def test_the_guard_sees_a_planted_unread_field(monkeypatch):
    # planted in a layer, so that _classes() finds them
    for cls in (Planted, PlantedDict):
        monkeypatch.setattr(cls, "__module__", "orbitforge.linalg")
        monkeypatch.setattr(linalg, cls.__name__, cls, raising=False)

    def run():
        planted = Planted(QQ)
        m = linalg.SparseMatrix(1, 1, QQ)
        # a read of SparseMatrix.ring is not a read of Planted.ring
        assert m.ring == QQ and planted.shown == 1
        PlantedDict().grow()

    planted = [name for name in _unread_fields(run) if name.startswith("linalg.Planted")]
    assert planted == ["linalg.Planted.kept", "linalg.Planted.ring", "linalg.PlantedDict.late"]
