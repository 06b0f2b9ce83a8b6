"""One QQ scalar form, owned by rings: a QQ value is an int when it is
integral and a Fraction with denominator > 1 otherwise.  No module of
src/orbitforge but rings.py names Fraction, so every other module makes its
QQ values through rings: a Ring is a tag with coerce and div, canonical
normalises what Python's operators compute, SparseMatrix._closed is the one
normaliser of computed matrix entries, and integer_maps the one split of QQ
maps over a common denominator.  The W layer returns every value in that
form."""

import ast
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from orbitforge.cli import W_SUITE_CASES
from orbitforge.enveloping import WSetup, augmentation_character, casimir
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition

from test_rings import _is_canonical

ROOT = Path(__file__).resolve().parents[1]
CASIMIR_CASES = (((2, 1, 1), -1), ((2, 2, 1), 1))   # the casimir suite: sp4 and so5


def _fraction_names(pkg: Path) -> list:
    """module:line of each use of the name Fraction, or import of the
    fractions module, in a module under pkg other than rings.py."""
    out = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "Fraction"
                    or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_only_rings_names_fraction():
    assert _fraction_names(ROOT / "src" / "orbitforge") == []


def test_the_guard_sees_a_planted_fraction(tmp_path):
    pkg = tmp_path / "orbitforge"
    shutil.copytree(ROOT / "src" / "orbitforge", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    assert _fraction_names(pkg) == []
    source = (pkg / "algebra.py").read_text()
    lines = source.count("\n")
    (pkg / "algebra.py").write_text(
        source + "\n\nfrom fractions import Fraction\nimport fractions\n"
        "HALF = Fraction(1, 2)\nTHIRD = fractions.Fraction(1, 3)\n"
    )
    assert _fraction_names(pkg) == [f"algebra:{lines + k}" for k in (3, 4, 5, 6)]


def _assert_canonical(values, where):
    bad = [c for c in values if not _is_canonical(c)]
    assert not bad, (where, bad[:3])


def _units(dim):
    return [{k: 1} for k in range(dim)]


@pytest.mark.parametrize("parts,eps", W_SUITE_CASES)
def test_the_walgebra_cases_give_canonical_scalars(parts, eps):
    setup = WSetup(build_nilpotent(Partition(parts), eps))
    thetas = setup.build_all_thetas()
    coefficients = []
    for th in thetas.values():
        _assert_canonical(th.value.values(), f"theta_{th.index}")
        _assert_canonical(th.expansion.values(), f"expansion of theta_{th.index}")
        coefficients += th.value.values()
    assert any(type(c) is int for c in coefficients) and any(type(c) is Fraction for c in coefficients)
    assert any(th.expansion for th in thetas.values())
    _assert_canonical(augmentation_character(setup).values(), "augmentation character")
    for v in _units(setup.dim) + [setup.rep.e_coords]:
        _assert_canonical(setup.embed(v).values(), "embed")


@pytest.mark.parametrize("parts,eps", CASIMIR_CASES)
def test_the_casimir_cases_give_canonical_scalars(parts, eps):
    cas = casimir(WSetup(build_nilpotent(Partition(parts), eps)))
    _assert_canonical(cas.element.values(), "Casimir element")
    _assert_canonical(cas.q_image.values(), "Casimir q_image")
    values = [*cas.element.values(), *cas.q_image.values()]
    assert any(type(c) is int for c in values) and any(type(c) is Fraction for c in values)
