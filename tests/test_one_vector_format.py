"""One vector format for the elements of g: every centraliser, Lagrangian,
m, slice and PBW basis vector, the coordinates of e, and the Chevalley
coordinates that ClassicalAlgebra reads and returns (the p-th powers of
reduce_mod_p among them), are the {index: scalar} map of the nonzero
coordinates, keys ascending.  Outside linalg no module reads a dense vector
into a map: sparse_vector is called by linalg.inverse_rows alone."""

from fractions import Fraction
from pathlib import Path

import pytest

from orbitforge.algebra import build_algebra
from orbitforge.centralizer import compute_centralizer
from orbitforge.enveloping import WSetup
from orbitforge.modular import reduce_mod_p
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import admissible_partitions
from orbitforge.rings import ZZ
from orbitforge.slices import build_m, slice_complement, split_lagrangian

from test_one_lift import _callers

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
        "m": build_m(rep, pair).basis,
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


def _sparse_vector_callers(sources: dict) -> set:
    """(file, scope) of every call of sparse_vector outside linalg.py."""
    return {(name, scope) for name, text in sources.items() if name != "linalg.py"
            for scope in _callers(text, "sparse_vector")}


def test_sparse_vector_is_called_outside_linalg_by_no_module():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _sparse_vector_callers(sources) == set()
    assert _callers(sources["linalg.py"], "sparse_vector") == ["inverse_rows"]


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
