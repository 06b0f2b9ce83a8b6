"""The layers above algebra compute brackets, chi and kappa of elements of g
on Chevalley coordinates, through the certified structure table and Killing
Gram.  Matrix commutators stay where the matrix is the certified object: the
structure table and Cartan elements in algebra, the zeta system in
centralizer, and the sl2-completion in orbits.

Every matrix bracket law goes through one kernel, linalg.bracket_residues.
It has three callers: the structure table build in algebra, the zeta
bracket law in centralizer, and the induced-module check in modular.  The
sparse product helpers it rests on are private to linalg."""

import ast
from pathlib import Path

import pytest

from orbitforge.algebra import ClassicalAlgebra
from orbitforge.enveloping import WSetup
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
MATRIX_PATH = {"commutator", "chi_value", "embed_matrix"}
PRODUCT_HELPERS = {"add_product", "_add_product", "row_map", "_row_map"}


def _names(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


@pytest.mark.parametrize("module", ["slices", "enveloping", "modular"])
def test_no_matrix_bracket_path(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not _names(tree) & MATRIX_PATH


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py") if path.stem != "linalg"))
def test_only_linalg_names_the_sparse_product_helpers(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not _names(tree) & PRODUCT_HELPERS


def test_the_guard_sees_a_product_helper():
    assert _names(ast.parse("from .linalg import add_product, row_map")) >= {"add_product", "row_map"}
    assert _names(ast.parse("rows = linalg._row_map(m.entries)")) & PRODUCT_HELPERS
    assert not _names(ast.parse("bracket_residues(mats, pairs)")) & PRODUCT_HELPERS


def test_the_guard_sees_a_matrix_commutator():
    assert _names(ast.parse("from .linalg import commutator")) & MATRIX_PATH
    assert _names(ast.parse("x = linalg.commutator(a, b)")) & MATRIX_PATH
    assert _names(ast.parse("def chi_value(rep, x): pass")) & MATRIX_PATH
    assert _names(ast.parse("t = self.embed_matrix(m)")) & MATRIX_PATH
    # the word in prose or in a longer name is not a use
    assert not _names(ast.parse('"""the commutator law"""\ncommutator_presentation(k)')) & MATRIX_PATH


def test_matrix_entry_points_are_gone():
    assert not hasattr(ClassicalAlgebra, "kappa")
    setup = WSetup(build_nilpotent(Partition((2, 1, 1)), -1))
    assert not hasattr(setup, "embed_matrix")
    assert not hasattr(setup, "_mats")
