"""`import orbitforge` loads no layer; a public name loads its layer when it
is read.

* A fresh interpreter that imports orbitforge holds no orbitforge layer, and
  building an algebra loads rings, linalg and algebra only, while
  orbitforge.cli still loads every layer and the runner.  The modules are
  read off sys.modules: -X importtime does not see importlib.import_module.
* The package exports the same 42 names as when it imported every layer,
  each the layer's own object.
* A name is read through its layer on every read and never stored in the
  package, so a name rebound in its layer, as perfbench's layer tracer
  does until it uninstalls, is what the package gives back.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitforge

SRC = Path(__file__).resolve().parents[1] / "src"

# the layers and names the package imported eagerly before it was lazy
PUBLIC = {
    "rings": ("ZZ", "QQ", "GF", "format_rational"),
    "linalg": ("SparseMatrix", "rank_kernel", "solve", "smith_normal_form"),
    "partitions": ("Partition", "validate_partition", "pairing_involution", "build_pyramid",
                   "is_almost_rigid", "is_rigid", "admissible_partitions"),
    "algebra": ("ClassicalAlgebra", "build_algebra"),
    "orbits": ("NilpotentRep", "InductionDatum", "build_nilpotent", "dynkin_grading",
               "complete_sl2", "orbit_dimension", "induce_orbit", "rigidity_oracle"),
    "centralizer": ("compute_centralizer", "build_zeta_system", "verify_zeta_system",
                    "derived_subalgebra", "check_generation"),
    "slices": ("build_psi", "split_lagrangian", "build_m", "slice_complement", "integral_saturation"),
    "enveloping": ("WSetup", "pbw_basis_check", "augmentation_character", "casimir"),
    "modular": ("reduce_mod_p", "build_induced_module", "kw_bookkeeping"),
}


def _loaded(code: str) -> list:
    """The orbitforge modules in sys.modules after a fresh interpreter runs
    code, sorted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'orbitforge')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules(*layers) -> list:
    return sorted(["orbitforge"] + [f"orbitforge.{layer}" for layer in layers])


def test_importing_the_package_loads_no_layer():
    assert _loaded("import orbitforge") == ["orbitforge"]
    assert _loaded("import orbitforge; orbitforge.__version__") == ["orbitforge"]


def test_building_an_algebra_loads_rings_linalg_and_algebra_only():
    assert _loaded("import orbitforge; orbitforge.build_algebra(4, -1)") == \
        _modules("rings", "linalg", "algebra")


def test_a_layer_imported_by_name_loads_what_it_imports():
    # with no attribute of that name the import falls back to the submodule
    assert _loaded("from orbitforge import partitions") == _modules("rings", "partitions")
    loaded = _loaded("from orbitforge import enveloping")
    assert {"orbitforge.enveloping", "orbitforge.runner"} <= set(loaded)
    assert not {"orbitforge.modular", "orbitforge.cli"} & set(loaded)


def test_the_cli_loads_every_layer_and_the_runner():
    assert _loaded("import orbitforge.cli") == _modules(*PUBLIC, "runner", "cli")


def test_the_public_names_are_the_layers_own_objects_and_no_other():
    assert orbitforge.__all__ == [name for names in PUBLIC.values() for name in names]
    assert len(orbitforge.__all__) == 42
    for layer, names in PUBLIC.items():
        module = importlib.import_module(f"orbitforge.{layer}")
        for name in names:
            assert getattr(orbitforge, name) is getattr(module, name), name
    assert set(orbitforge.__all__) | {"__version__"} <= set(dir(orbitforge))
    assert orbitforge.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'build_algebras'"):
        orbitforge.build_algebras
    with pytest.raises(ImportError, match="build_algebras"):
        from orbitforge import build_algebras  # noqa: F401


def test_a_name_rebound_in_its_layer_is_what_the_package_gives(monkeypatch):
    original = orbitforge.build_nilpotent
    assert original is orbitforge.orbits.build_nilpotent

    def rebound(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(orbitforge.orbits, "build_nilpotent", rebound)
    assert orbitforge.build_nilpotent is rebound
    monkeypatch.undo()
    assert orbitforge.build_nilpotent is original


def test_reading_a_name_stores_nothing_in_the_package():
    for layer in PUBLIC:   # the import system binds each layer loaded as a package attribute
        importlib.import_module(f"orbitforge.{layer}")
    before = dict(vars(orbitforge))
    for name in orbitforge.__all__:
        getattr(orbitforge, name)
    dir(orbitforge)
    after = vars(orbitforge)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert not set(orbitforge.__all__) & after.keys()
