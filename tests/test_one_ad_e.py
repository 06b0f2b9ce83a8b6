"""Each representative builds its Dynkin grading once and ad e once per ring;
orbits.ad_e_block cuts ad e : g(d) -> g(d+2) out of that matrix and is the
one place that checks that ad e raises the degree by two.  Only orbits
builds ad e: no other module passes e_coords to ClassicalAlgebra.ad.  The
SNFs, ranks and solves of ad e run on those blocks, never on the whole
matrix, which appears here only as the reference they are checked against."""

import ast
from pathlib import Path

import pytest

from orbitforge import cli, modular, orbits, slices
from orbitforge.algebra import ClassicalAlgebra
from orbitforge.centralizer import compute_centralizer
from orbitforge.linalg import SparseMatrix, commutator, row_span, smith_normal_form, solve
from orbitforge.modular import centralizer_dim_mod_p
from orbitforge.orbits import (ad_e_block, ad_e_matrix, build_nilpotent, centralizer_dim_formula,
                               complete_sl2, dynkin_grading)
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
            assert all(c == 0 for k, c in coords.items() if k not in target)
            ref.update({(target[k], jj): c for k, c in coords.items() if c != 0})
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
        key = (tuple(x.items()), ring)
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
    assert all(not ad_e.apply(v) for v in basis.vectors)
    rows = {(r, k): x for r, v in enumerate(basis.vectors) for k, x in v.items()}
    snf = smith_normal_form(SparseMatrix(basis.dim, rep.algebra.dim, ZZ, rows))
    assert snf.rank == basis.dim == centralizer_dim_formula(lam, eps)
    assert all(x == 1 for x in snf.divisors)


# -- the blocks against the whole matrix ------------------------------------------


@pytest.mark.parametrize("lam, eps", _sweep(10), ids=str)
def test_saturation_divisors_are_the_snf_of_the_whole_ad_e(lam, eps):
    rep = build_nilpotent(lam, eps)
    assert slices.integral_saturation(rep)["divisors"] == smith_normal_form(ad_e_matrix(rep, ZZ)).divisors


@pytest.mark.parametrize("lam, eps", _sweep(8), ids=str)
def test_block_ranks_mod_p_are_the_rank_of_the_whole_ad_e(lam, eps):
    rep = build_nilpotent(lam, eps)
    for p in (3, 5, 7):
        assert centralizer_dim_mod_p(rep, p) == rep.algebra.dim - row_span(ad_e_matrix(rep, GF(p))).rank


@pytest.mark.parametrize("lam, eps", _sweep(8), ids=str)
def test_f_is_the_solve_on_whole_columns(lam, eps):
    rep = build_nilpotent(lam, eps)
    alg, gr = rep.algebra, dynkin_grading(rep)
    h, f = complete_sl2(rep)
    neg2 = gr.layer(-2)
    sol = solve(ad_e_matrix(rep).columns(neg2), alg.coordinates(h))
    assert f == alg.from_coordinates({neg2[i]: x for i, x in sol.items()})


def test_the_cli_checks_reduce_no_matrix_as_tall_as_g(monkeypatch):
    # the shape of every matrix the saturation, stability and representative
    # checks reduce; at the zero orbit g(0) = g and g(-2) = 0, so the block
    # complete_sl2 solves on is the empty dim x 0 matrix
    shapes = {}
    for module, name in ((slices, "smith_normal_form"), (modular, "row_span"), (orbits, "solve")):
        def recording(m, *args, _f=getattr(module, name), _name=name):
            shapes.setdefault(_name, []).append((m.nrows, m.ncols))
            return _f(m, *args)
        monkeypatch.setattr(module, name, recording)
    config = cli.VerifyConfig()
    for lam, eps in _sweep(8):
        dim = build_nilpotent(lam, eps).algebra.dim
        for check in (cli._saturation, cli._stability, cli._representative):
            for reduced in shapes.values():
                reduced.clear()
            check(lam, eps, config)
            assert all(r < dim or c == 0 for reduced in shapes.values() for r, c in reduced)
    assert set(shapes) == {"smith_normal_form", "row_span", "solve"}


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


REDUCTIONS = {"smith_normal_form", "rank_kernel", "row_span", "solve", "integer_kernel_basis"}


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def _reduces_whole_ad_e(tree) -> bool:
    """True if a call to one of REDUCTIONS has an argument that calls
    ad_e_matrix."""
    for node in ast.walk(tree):
        if _callee(node) in REDUCTIONS:
            for arg in node.args + [kw.value for kw in node.keywords]:
                if any(_callee(sub) == "ad_e_matrix" for sub in ast.walk(arg)):
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_reduction_takes_the_whole_ad_e(path):
    assert not _reduces_whole_ad_e(ast.parse(path.read_text()))


def test_the_guard_sees_an_ad_e_build():
    assert _builds_ad_e(ast.parse("m = rep.algebra.ad(rep.e_coords, ZZ)"))
    assert _builds_ad_e(ast.parse("m = alg.ad(x=e_coords)"))
    assert _builds_ad_e(ast.parse("m = alg.ad(tuple(2 * c for c in rep.e_coords))"))
    assert not _builds_ad_e(ast.parse("m = alg.ad(t)\nk = alg.kappa_row(rep.e_coords)"))
    assert _names(ast.parse("from .slices import ad_e_lattice_matrix")) & RETIRED
    assert not hasattr(orbits, "centralizer_kernel") and not hasattr(slices, "ad_e_lattice_matrix")


def test_the_guard_sees_a_reduction_of_the_whole_ad_e():
    assert _reduces_whole_ad_e(ast.parse("snf = smith_normal_form(ad_e_matrix(rep, ZZ))"))
    assert _reduces_whole_ad_e(ast.parse("x = solve(orbits.ad_e_matrix(rep).columns(neg2), b)"))
    assert _reduces_whole_ad_e(ast.parse("r = linalg.rank_kernel(m=ad_e_matrix(rep, GF(p)))[0]"))
    assert _reduces_whole_ad_e(ast.parse("k = integer_kernel_basis(ad_e_matrix(rep, ZZ).columns(ix))"))
    assert _reduces_whole_ad_e(ast.parse("r = row_span(ad_e_matrix(rep, GF(p)).transpose()).rank"))
    assert not _reduces_whole_ad_e(ast.parse("snf = smith_normal_form(ad_e_block(rep, d, ZZ))"))
    assert not _reduces_whole_ad_e(ast.parse("y = ad_e_matrix(rep).transpose().apply(v)"))
