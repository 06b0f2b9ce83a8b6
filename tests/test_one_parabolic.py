"""The Levi split n_- + l + n_+ of g for given gl block sizes comes from
orbits.parabolic, which reads degrees through orbits.basis_degrees, the one
place that derives a basis element's degree from the signed indices.  The
torus weights of slices.weight_data are read through basis_degrees as well,
from the pyramid rows, with no torus element built as a matrix.  The
zero-orbit datum of a Levi shape is InductionDatum.zero_orbit."""

import ast
from pathlib import Path

import pytest

from orbitforge.algebra import build_algebra
from orbitforge.linalg import SparseMatrix
from orbitforge.orbits import (
    InductionDatum,
    enumerate_levi_data,
    nilradical_basis,
    parabolic,
)
from orbitforge.partitions import Partition, all_partitions

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
FAMILIES = [(n, eps) for n in range(2, 11) for eps in (1, -1) if eps == 1 or n % 2 == 0]


def _compositions(total: int):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1) for rest in _compositions(total - first)]


SHAPES = [(n, eps, sizes) for n, eps in FAMILIES
          for total in range(1, n // 2 + 1) for sizes in _compositions(total)]


def _reference_split(alg, sizes):
    """The split read off the root labels.  Block t of the k gl blocks takes
    the next sizes[t] indices counting down from h, each of weight k - t; the
    residual indices have weight 0.  Root w has degree sum_i w_i wt(i), and
    Cartan elements have degree 0."""
    wt = [0] * (alg.h + 1)
    i = alg.h
    for t, a in enumerate(sizes):
        for _ in range(a):
            wt[i] = len(sizes) - t
            i -= 1
    degs = [0 if kind == "h" else sum(c * wt[j + 1] for j, c in enumerate(w)) for kind, w in alg.labels]
    return (tuple(k for k, d in enumerate(degs) if d < 0),
            tuple(k for k, d in enumerate(degs) if d == 0),
            tuple(k for k, d in enumerate(degs) if d > 0))


@pytest.mark.parametrize("n, eps, sizes", SHAPES)
def test_parabolic_matches_the_root_labels(n, eps, sizes):
    alg = build_algebra(n, eps)
    n_minus, levi, n_plus = parabolic(alg, sizes)
    assert (n_minus, levi, n_plus) == _reference_split(alg, sizes)
    assert len(n_minus) == len(n_plus) and nilradical_basis(alg, list(sizes)) == n_plus
    m = n - 2 * sum(sizes)
    residual_dim = m * (m - 1) // 2 if eps == 1 else m * (m + 1) // 2
    assert len(levi) == sum(a * a for a in sizes) + residual_dim


def test_the_reference_sees_a_wrong_split():
    # so_5 with one gl_1 block on the outermost index 2: the short root
    # eps_2 lies in n_+, eps_1 in the Levi and eps_1 - eps_2 in n_-
    alg = build_algebra(5, 1)
    n_minus, levi, n_plus = _reference_split(alg, (1,))
    assert alg.labels.index(("e", (0, 1))) in n_plus
    assert alg.labels.index(("e", (1, 0))) in levi
    assert alg.labels.index(("e", (1, -1))) in n_minus
    assert _reference_split(alg, (1,)) != _reference_split(alg, (2,))


@pytest.mark.parametrize("n, eps", FAMILIES)
def test_zero_orbit_is_the_zero_datum_of_each_levi_shape(n, eps):
    zero = [InductionDatum.zero_orbit(n, eps, sizes.parts)
            for total in range(1, n // 2 + 1) for sizes in all_partitions(total)]
    for d in zero:
        assert all(mu == Partition((1,) * a) for a, mu in d.gl_blocks)
        assert d.residual == Partition((1,) * (n - 2 * sum(d.gl_sizes)))
    # the full enumeration builds its data without zero_orbit and holds each one
    assert set(zero) <= set(enumerate_levi_data(n, eps))


def test_zero_orbit_of_a_levi_filling_g_has_the_empty_residual():
    datum = InductionDatum.zero_orbit(4, -1, (2,))
    assert datum.residual == Partition(()) and str(datum) == "gl_2[1,1]"


def _index_readers(tree) -> set:
    """Names of the functions and methods that read an attribute named indices."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, ast.Attribute) and n.attr == "indices" for n in ast.walk(node)):
                out.add(node.name)
    return out


@pytest.mark.parametrize("module", ["centralizer", "slices", "enveloping", "modular", "cli"])
def test_no_signed_index_reads(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not any(isinstance(n, ast.Attribute) and n.attr == "indices" for n in ast.walk(tree))


def test_orbits_reads_signed_indices_in_three_places():
    # degrees in basis_degrees; the sigma table and the residual embedding
    # map matrix positions back to signed indices and derive no degree
    assert _index_readers(ast.parse((SRC / "orbits.py").read_text())) == {
        "basis_degrees", "_sigma_table", "embed_datum"}


def test_the_guard_sees_an_index_read():
    assert _index_readers(ast.parse("def f(alg, r):\n    return alg.indices[r]")) == {"f"}
    # the word in prose or as a plain name is not a read
    assert not _index_readers(ast.parse('def f():\n    """alg.indices"""\n    indices = 1'))


def _names(tree) -> set:
    """Every name the code reads, as x or as obj.x."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_torus_weights_are_read_without_matrices():
    assert not hasattr(SparseMatrix, "zeros") and not hasattr(SparseMatrix, "trace")
    tree = ast.parse((SRC / "slices.py").read_text())
    assert "toral_generators" not in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "basis_degrees" in _names(tree) and not _names(tree) & {"ad", "in_algebra"}
    # the guard sees a matrix torus
    assert {"ad", "in_algebra"} <= _names(ast.parse("alg.in_algebra(t) and alg.ad(t)"))
