"""Each representative builds its Dynkin grading once and ad e once per ring;
orbits.ad_e_block cuts ad e : g(d) -> g(d+2) out of that matrix and is the
one place that checks that ad e raises the degree by two.  Only orbits
builds ad e: no other module passes e_coords to ClassicalAlgebra.ad."""

import ast
from pathlib import Path

import pytest

from orbitforge import cli, orbits, slices
from orbitforge.algebra import ClassicalAlgebra
from orbitforge.centralizer import compute_centralizer
from orbitforge.linalg import SparseMatrix, commutator, smith_normal_form
from orbitforge.orbits import (ad_e_block, ad_e_matrix, build_nilpotent, centralizer_dim_formula,
                               dynkin_grading)
from orbitforge.partitions import Partition, admissible_partitions
from orbitforge.rings import GF, QQ, ZZ

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
RETIRED = {"ad_e_lattice_matrix", "centralizer_kernel"}


def _sweep(max_n):
    return [(lam, eps) for n in range(2, max_n + 1) for eps in (1, -1) if eps == 1 or n % 2 == 0
            for lam in admissible_partitions(n, eps)]


@pytest.mark.parametrize("lam, eps", _sweep(8), ids=str)
def test_block_is_the_commutator_cut_to_the_layers(lam, eps):
    rep = build_nilpotent(lam, eps)
    alg, gr = rep.algebra, dynkin_grading(rep)
    for d in gr.layers:
        target = {k: i for i, k in enumerate(gr.layer(d + 2))}
        ref = {}
        for jj, j in enumerate(gr.layer(d)):
            coords = alg.coordinates(commutator(rep.e, alg.basis[j]))
            assert all(c == 0 for k, c in enumerate(coords) if k not in target)
            ref.update({(target[k], jj): c for k, c in enumerate(coords) if c != 0})
        for ring in (QQ, ZZ, GF(3)):
            assert ad_e_block(rep, d, ring) == SparseMatrix(len(target), len(gr.layer(d)), ring, ref)


def test_block_raises_when_ad_e_leaves_the_next_degree(monkeypatch):
    ad = ClassicalAlgebra.ad
    # a spurious diagonal entry keeps [e, B_j] in the degree of B_j
    monkeypatch.setattr(ClassicalAlgebra, "ad", lambda self, x, ring=QQ: ad(self, x, ring)
                        + SparseMatrix(self.dim, self.dim, ring, {(0, 0): 1}))
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    d = dynkin_grading(rep).degree[0]
    with pytest.raises(AssertionError, match=rf"ad e maps g\({d}\) outside g\({d + 2}\)"):
        ad_e_block(rep, d)
    with pytest.raises(AssertionError, match="outside"):
        compute_centralizer(rep)


def test_grading_and_ad_e_are_built_once():
    rep = build_nilpotent(Partition((3, 2, 2, 1)), 1)
    assert dynkin_grading(rep) is dynkin_grading(rep)
    assert all(type(ix) is tuple for ix in dynkin_grading(rep).layers.values())
    for ring in (QQ, ZZ, GF(3)):
        assert ad_e_matrix(rep, ring) is ad_e_matrix(rep, ring)


def test_a_saturation_case_builds_ad_e_once_per_ring(monkeypatch):
    ad, calls = ClassicalAlgebra.ad, {}

    def counted(self, x, ring=QQ):
        key = (tuple(x), ring)
        calls[key] = calls.get(key, 0) + 1
        return ad(self, x, ring)

    monkeypatch.setattr(ClassicalAlgebra, "ad", counted)
    cli._saturation(Partition((3, 2, 2, 1)), 1, cli.VerifyConfig())
    assert {ring for _, ring in calls} == {QQ, ZZ}
    assert max(calls.values()) == 1


@pytest.mark.parametrize("lam, eps", _sweep(10), ids=str)
def test_integer_centralizer_is_the_saturated_lattice(lam, eps):
    # the ZZ kernels run on row-restricted blocks; whatever basis they pick,
    # it must be a basis of g^e ∩ g_Z
    rep = build_nilpotent(lam, eps)
    basis = compute_centralizer(rep, ZZ)
    ad_e = ad_e_matrix(rep, ZZ)
    assert all(not any(ad_e.apply(v)) for v in basis.vectors)
    snf = smith_normal_form(SparseMatrix.from_dense([list(v) for v in basis.vectors], ZZ))
    assert snf.rank == basis.dim == centralizer_dim_formula(lam, eps)
    assert all(x == 1 for x in snf.divisors)


# -- AST guard -------------------------------------------------------------------


def _builds_ad_e(tree) -> bool:
    """True if some call x.ad(...) has e_coords among its arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "ad":
            for arg in node.args + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if (isinstance(sub, ast.Attribute) and sub.attr == "e_coords") or (
                            isinstance(sub, ast.Name) and sub.id == "e_coords"):
                        return True
    return False


def _names(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_orbits_builds_ad_e(path):
    tree = ast.parse(path.read_text())
    if path.stem != "orbits":
        assert not _builds_ad_e(tree)
    assert not _names(tree) & RETIRED


def test_the_guard_sees_an_ad_e_build():
    assert _builds_ad_e(ast.parse("m = rep.algebra.ad(rep.e_coords, ZZ)"))
    assert _builds_ad_e(ast.parse("m = alg.ad(x=e_coords)"))
    assert _builds_ad_e(ast.parse("m = alg.ad(tuple(2 * c for c in rep.e_coords))"))
    assert not _builds_ad_e(ast.parse("m = alg.ad(t)\nk = alg.kappa_row(rep.e_coords)"))
    assert _names(ast.parse("from .slices import ad_e_lattice_matrix")) & RETIRED
    assert not hasattr(orbits, "centralizer_kernel") and not hasattr(slices, "ad_e_lattice_matrix")
