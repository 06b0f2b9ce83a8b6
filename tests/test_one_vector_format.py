"""One vector format, the {index: scalar} map of the nonzero entries, keys
ascending, for the elements of g and at linalg's boundary.

* Every centraliser, Lagrangian, m, slice and PBW basis vector, the
  coordinates of e, and the Chevalley coordinates that ClassicalAlgebra
  reads and returns (the p-th powers of reduce_mod_p among them) are such
  maps, and so is kappa_row's Killing functional.
* linalg takes and gives them: the kernels of rank_kernel, the solutions of
  solve (both over QQ only), the rows of inverse_rows, the bases of
  integer_kernel_basis and complete_saturated_basis, and the products of
  SparseMatrix.apply.
* No module reads a dense vector into a map (sparse_vector is gone), none
  outside linalg imports a private linalg name, and none builds a kernel to
  read only its rank: that is row_span(m).rank.
* No module builds a dense matrix either: from_dense and to_dense are gone,
  and the Smith normal form keeps its working matrices and certificates as
  {index: int} maps, by rows or by columns."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from orbitforge.algebra import build_algebra
from orbitforge.centralizer import compute_centralizer
from orbitforge.enveloping import WSetup
from orbitforge.linalg import complete_saturated_basis, integer_kernel_basis, inverse_rows, rank_kernel, solve
from orbitforge.modular import reduce_mod_p
from orbitforge.orbits import ad_e_block, build_nilpotent, dynkin_grading
from orbitforge.partitions import admissible_partitions
from orbitforge.rings import GF, QQ, ZZ
from orbitforge.slices import build_m, build_psi, slice_complement, split_lagrangian

from test_one_ad_e import _callee
from test_one_bracket import _names
from test_one_lift import _callers, _last_name

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
SWEEP = [(lam, eps) for n in range(2, 9) for eps in (1, -1) if eps == 1 or n % 2 == 0
         for lam in admissible_partitions(n, eps)]


def _is_map(v, dim, p=None) -> bool:
    """v is a dict with ascending int keys in range(dim), and its values are
    nonzero scalars in canonical form: an int, or a Fraction off the
    integers; with p, an int residue in [1, p)."""
    def canonical(c):
        if p is not None:
            return type(c) is int and 0 < c < p
        return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))

    return (type(v) is dict and all(type(k) is int and 0 <= k < dim for k in v) and list(v) == sorted(v)
            and all(canonical(c) for c in v.values()))


@pytest.mark.parametrize("lam, eps", SWEEP, ids=str)
def test_every_element_of_g_is_a_sorted_map_without_zeros(lam, eps):
    rep = build_nilpotent(lam, eps)
    pair = split_lagrangian(rep)
    setup = WSetup(rep)
    containers = {
        "centraliser over QQ": compute_centralizer(rep).vectors,
        "centraliser over ZZ": compute_centralizer(rep, ZZ).vectors,
        "z'": pair.z_minus,
        "z": pair.z_plus,
        "m": build_m(rep).basis,
        "slice": slice_complement(rep).complement,
        "PBW basis": setup.basis_vectors,
    }
    for name, vectors in containers.items():
        assert all(_is_map(v, rep.algebra.dim) for v in vectors), name
    assert len(setup.basis_vectors) == rep.algebra.dim


@pytest.mark.parametrize("lam, eps", SWEEP, ids=str)
def test_the_coordinates_of_e_are_a_sorted_map_without_zeros(lam, eps):
    rep = build_nilpotent(lam, eps)
    dim = rep.algebra.dim
    assert _is_map(rep.e_coords, dim) and _is_map(rep.algebra.coordinates(rep.e), dim)
    assert rep.algebra.coordinates(rep.e) == rep.e_coords


ALGEBRAS = sorted({(lam.size, eps) for lam, eps in SWEEP})


@pytest.mark.parametrize("n, eps", ALGEBRAS)
def test_the_p_th_powers_are_sorted_maps_of_residues(n, eps):
    alg = build_algebra(n, eps)
    for p in (3, 5, 7):
        p_power = reduce_mod_p(alg, p).p_power
        assert len(p_power) == alg.dim and all(_is_map(v, alg.dim, p) for v in p_power), p


FIELDS = [QQ, GF(3), GF(17)]   # QQ, a byte-packed prime and a dict-row prime


@pytest.mark.parametrize("lam, eps", SWEEP, ids=str)
def test_linalg_gives_sorted_maps_without_zeros(lam, eps):
    rep = build_nilpotent(lam, eps)
    alg = rep.algebra
    for d in dynkin_grading(rep).layers:
        for ring in FIELDS:
            p = ring.p if ring.kind == "GF" else None
            block = ad_e_block(rep, d, ring)
            x = {j: j % 3 for j in range(block.ncols)}   # a zero entry among them
            image = block.apply(x)
            assert _is_map(image, block.nrows, p), (d, ring)
            if ring != QQ:
                continue   # a span mod p is never read back, so only its rank leaves linalg
            rank, kernel = rank_kernel(block)
            assert rank + len(kernel) == block.ncols
            assert all(_is_map(v, block.ncols) for v in kernel) and all(not block.apply(v) for v in kernel), d
            sol = solve(block, image)
            assert _is_map(sol, block.ncols) and block.apply(sol) == image
        lattice = ad_e_block(rep, d, ZZ)
        kernel = integer_kernel_basis(lattice)
        completion = complete_saturated_basis(kernel, lattice.ncols)
        assert len(kernel) + len(completion) == lattice.ncols
        assert all(_is_map(v, lattice.ncols) for v in kernel + completion), d
        assert all(_is_map(lattice.apply(v), lattice.nrows) for v in completion)
    for xs in [rep.e_coords] + compute_centralizer(rep).vectors:
        assert _is_map(alg.kappa_row(xs), alg.dim)
    m_block = build_psi(rep).m_block
    if m_block.nrows:
        assert all(_is_map(row, m_block.nrows) for row in inverse_rows(m_block.rows()))


@pytest.mark.parametrize("n, eps", ALGEBRAS)
def test_inverse_rows_gives_sorted_maps_without_zeros(n, eps):
    gram = build_algebra(n, eps).killing_form()["gram"]
    inverse = inverse_rows(gram.rows())
    assert len(inverse) == gram.nrows and all(_is_map(row, gram.nrows) for row in inverse)
    # the inverse, applied to each row of the Gram, gives the unit vectors
    assert [gram.apply(row) for row in inverse] == [{k: 1} for k in range(gram.nrows)]


def _sparse_vector_callers(sources: dict) -> set:
    """(file, scope) of every call of sparse_vector outside linalg.py."""
    return {(name, scope) for name, text in sources.items() if name != "linalg.py"
            for scope in _callers(text, "sparse_vector")}


def test_sparse_vector_is_called_outside_linalg_by_no_module():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _sparse_vector_callers(sources) == set()
    assert _callers(sources["linalg.py"], "sparse_vector") == [] and "sparse_vector" not in sources["linalg.py"]


def test_the_guard_sees_a_third_sparse_vector_call():
    # two calls in linalg, which are not counted, and a third outside it
    planted = {
        "linalg.py": "def inverse_rows(rows):\n    return [sparse_vector(row, QQ) for row in rows]\n\n\n"
                     "def _row_span(m):\n    return sparse_vector(m, QQ)\n",
        "enveloping.py": '''
class WSetup:
    def _head(self, x, scale):
        xs = sparse_vector(x, QQ)


def jems_commutator_check(setup, u_mat, v_mat, v_degree):
    u, v = (setup.alg.coordinates(m) for m in (u_mat, v_mat))
''',
    }
    assert _sparse_vector_callers(planted) == {("enveloping.py", "WSetup._head")}
    # the name in prose is not counted
    planted["enveloping.py"] = planted["enveloping.py"].replace("xs = sparse_vector(x, QQ)", '"""sparse_vector(x)"""')
    assert _sparse_vector_callers(planted) == set()


def _linalg_misuses(sources: dict) -> set:
    """(file, use) for each module other than linalg.py that imports a
    _-prefixed name of linalg or reads one off the module, or that reads
    only the rank of rank_kernel: rank_kernel(...)[0], or rank_kernel(...)
    unpacked into a pair whose second name is _."""
    out = set()
    for name, text in sources.items():
        if name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
                out.update((name, f"import {alias.name}") for alias in node.names if alias.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and _last_name(node.value) == "linalg" and node.attr.startswith("_"):
                out.add((name, f"linalg.{node.attr}"))
            elif (isinstance(node, ast.Subscript) and _callee(node.value) == "rank_kernel"
                  and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
                out.add((name, "rank_kernel(...)[0]"))
            elif (isinstance(node, ast.Assign) and _callee(node.value) == "rank_kernel"
                  and any(isinstance(t, ast.Tuple) and len(t.elts) == 2 and _last_name(t.elts[1]) == "_"
                          for t in node.targets)):
                out.add((name, "rank, _ = rank_kernel(...)"))
    return out


def test_no_module_imports_a_private_linalg_name_or_builds_a_kernel_for_its_rank():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _linalg_misuses(sources) == set()


def test_the_guard_sees_a_private_linalg_name_and_a_rank_only_kernel():
    planted = {
        # linalg itself is not counted
        "linalg.py": "def row_span(m):\n    return _echelon(m), rank_kernel(m)[0]\n",
        "orbits.py": "from .linalg import SparseMatrix, _row_span, row_span\n",
        "cli.py": "from orbitforge.linalg import _echelon as echelon\n",
        "modular.py": "from . import linalg\n\n\ndef ranks(m):\n    return linalg._row_span(m).rank\n",
        "slices.py": """
def build_psi(gram):
    rank, _ = rank_kernel(gram)
    return rank_kernel(gram)[0]


def kernel(m):
    rank, kernel = rank_kernel(m)        # the kernel is read: fine
    return row_span(m).rank, kernel[0], rank_kernel(m)[1]
""",
    }
    assert _linalg_misuses(planted) == {
        ("orbits.py", "import _row_span"),
        ("cli.py", "import _echelon"),
        ("modular.py", "linalg._row_span"),
        ("slices.py", "rank, _ = rank_kernel(...)"),
        ("slices.py", "rank_kernel(...)[0]"),
    }


DENSE_NAMES = {"from_dense", "to_dense"}


def _dense_matrix_uses(sources: dict) -> set:
    """(file, name) for each module that defines, calls or reads from_dense
    or to_dense."""
    return {(name, found) for name, text in sources.items() for found in _names(ast.parse(text)) & DENSE_NAMES}


def test_no_module_defines_or_calls_a_dense_matrix_reader():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _dense_matrix_uses(sources) == set()


def test_the_guard_sees_a_dense_matrix_reader():
    planted = {
        "linalg.py": """
class SparseMatrix:
    @classmethod
    def from_dense(cls, rows, ring):
        return cls(len(rows), len(rows[0]), ring)
""",
        "slices.py": "def gram_rows(psi):\n    return psi.m_block.to_dense()\n",
        # the names in prose are not counted
        "orbits.py": '"""No from_dense and no to_dense here."""\n',
    }
    assert _dense_matrix_uses(planted) == {("linalg.py", "from_dense"), ("slices.py", "to_dense")}
