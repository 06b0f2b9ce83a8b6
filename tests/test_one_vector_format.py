"""One vector format for the elements of g: every centraliser, Lagrangian,
m, slice and PBW basis vector is the {index: scalar} map of its nonzero
Chevalley coordinates, keys ascending, from the kernels on.  Outside linalg
a dense coordinate vector is read into a map in two places only: the
matrices jems_commutator_check is given, and e in casimir."""

from fractions import Fraction
from pathlib import Path

import pytest

from orbitforge.centralizer import compute_centralizer
from orbitforge.enveloping import WSetup
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import admissible_partitions
from orbitforge.rings import ZZ
from orbitforge.slices import build_m, slice_complement, split_lagrangian

from test_one_lift import _callers

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
SWEEP = [(lam, eps) for n in range(2, 9) for eps in (1, -1) if eps == 1 or n % 2 == 0
         for lam in admissible_partitions(n, eps)]


def _is_map(v, dim) -> bool:
    """v is a dict with ascending int keys in range(dim), and its values are
    nonzero scalars in canonical form (an int, or a Fraction off the
    integers)."""
    return (type(v) is dict and all(type(k) is int and 0 <= k < dim for k in v) and list(v) == sorted(v)
            and all(c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
                    for c in v.values()))


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


def _sparse_vector_callers(sources: dict) -> set:
    """(file, scope) of every call of sparse_vector outside linalg.py."""
    return {(name, scope) for name, text in sources.items() if name != "linalg.py"
            for scope in _callers(text, "sparse_vector")}


ALLOWED = {("enveloping.py", "jems_commutator_check"), ("enveloping.py", "casimir")}


def test_sparse_vector_is_called_outside_linalg_only_on_the_two_dense_inputs():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _sparse_vector_callers(sources) == ALLOWED


def test_the_guard_sees_a_third_sparse_vector_call():
    planted = {
        "linalg.py": "def inverse_rows(rows):\n    return [sparse_vector(row, QQ) for row in rows]\n",
        "enveloping.py": '''
class WSetup:
    def _head(self, x, scale):
        xs = sparse_vector(x, QQ)


def jems_commutator_check(setup, u_mat, v_mat, v_degree):
    u, v = (sparse_vector(setup.alg.coordinates(m), QQ) for m in (u_mat, v_mat))


def casimir(setup):
    return sparse_vector(setup.rep.e_coords, QQ)
''',
    }
    assert _sparse_vector_callers(planted) == ALLOWED | {("enveloping.py", "WSetup._head")}
    # a call from linalg, or the name in prose, is not counted
    planted["enveloping.py"] = planted["enveloping.py"].replace("xs = sparse_vector(x, QQ)", '"""sparse_vector(x)"""')
    assert _sparse_vector_callers(planted) == ALLOWED
