"""Nilpotent representatives, gradings, sl2 completion and the induction
oracle."""


import pytest

from orbitforge import orbits
from orbitforge.algebra import build_algebra
from orbitforge.linalg import SparseMatrix, commutator, rank_kernel
from orbitforge.partitions import Partition, admissible_partitions, all_partitions, is_rigid
from orbitforge.rings import QQ
from orbitforge.orbits import (
    DynkinGrading,
    InductionDatum,
    build_nilpotent,
    jordan_type,
    dynkin_grading,
    graded_dims,
    complete_sl2,
    orbit_dimension,
    orbit_dim_formula,
    centralizer_dim_formula,
    induce_orbit,
    generic_datum_sample,
    rigidity_oracle,
    find_induction_witness,
    ad_e_matrix,
    embed_datum,
    datum_levi_orbit_dim,
    _embed_gl_jordan,
)

from levi_data import enumerate_levi_data


def test_reference_representative_5221():
    rep = build_nilpotent(Partition((5, 2, 2, 1)), 1)
    g = rep.algebra
    expect = (g.unit(5, 4) - g.unit(-4, -5) + g.unit(3, 2) - g.unit(-2, -3)
              + g.unit(2, 1) - g.unit(-1, -2) + g.unit(1, -2) - g.unit(2, -1))
    assert rep.e == expect


def test_representatives_share_one_sigma_table_per_algebra():
    # the signs sigma_{i,j} are read off the algebra's one position table;
    # orbits keeps no copy of its own
    assert not hasattr(orbits, "_sigma_table")
    a = build_nilpotent(Partition((5, 2, 2, 1)), 1)
    table = a.algebra._root_at
    b = build_nilpotent(Partition((3, 3, 2, 2)), 1)
    assert a.algebra is b.algebra
    assert b.algebra._root_at is table


def test_zero_orbit_representative():
    rep = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    assert rep.e.is_zero()


def test_31_rank_sequence():
    rep = build_nilpotent(Partition((3, 1)), 1)
    assert jordan_type(rep.e) == Partition((3, 1))


@pytest.mark.parametrize("eps", [1, -1])
def test_jordan_type_of_every_representative_up_to_10(eps):
    # the rank of each power is read off one echelon span; e and its
    # transpose have the Jordan type of the partition
    count = 0
    for n in range(2, 11):
        for lam in admissible_partitions(n, eps):
            e = build_nilpotent(lam, eps).e
            assert jordan_type(e) == lam
            assert jordan_type(e.transpose()) == lam
            count += 1
    assert count == {1: 61, -1: 52}[eps]


def test_jordan_type_refuses_a_matrix_that_is_not_nilpotent():
    g = build_algebra(3, 1)
    nilpotent = g.unit(1, 0) + g.unit(0, -1)
    assert jordan_type(nilpotent) == Partition((3,))
    for x in (SparseMatrix.identity(3, QQ), nilpotent + g.unit(1, 1)):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type(x)


def test_grading_dims_sp4_211():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    gr = dynkin_grading(rep)
    assert graded_dims(gr) == {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1}


def test_e_is_degree_two():
    for parts, eps in [((5, 2, 2, 1), 1), ((4, 3, 3, 2), -1)]:
        rep = build_nilpotent(Partition(parts), eps)
        gr = dynkin_grading(rep)
        for k, c in rep.e_coords.items():
            if c:
                assert gr.degree[k] == 2


def test_zero_orbit_trivial_grading():
    rep = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    gr = dynkin_grading(rep)
    assert set(gr.layers) == {0}


def test_very_even_flag():
    rep = build_nilpotent(Partition((2, 2)), 1)
    assert rep.very_even


def test_sl2_h_is_cocharacter_differential():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    h, f = complete_sl2(rep)
    gr = dynkin_grading(rep)
    for a in rep.pyramid.boxes():
        assert h[(rep.algebra.pos[a], rep.algebra.pos[a])] == gr.weight[a]
    assert commutator(h, rep.e) == rep.e.scale(2)
    assert commutator(h, f) == f.scale(-2)
    assert commutator(rep.e, f) == h


def test_coordinates_refuse_a_representative_off_a_corrupted_sigma_table(monkeypatch):
    # dropping the partner e_{-b,-a} of one pair (a, b) leaves half a root
    # vector in e, which takes e out of g; no membership check but the
    # reconstruction in coordinates sees it
    honest = orbits.nilpotent_positions
    dropped = []

    def corrupted(pyr, eps):
        pairs = honest(pyr, eps)
        a, b = next((a, b) for a, b in pairs if (-b, -a) in pairs and (-b, -a) != (a, b))
        dropped.append((-b, -a))
        return [ab for ab in pairs if ab != (-b, -a)]

    monkeypatch.setattr(orbits, "nilpotent_positions", corrupted)
    with pytest.raises(ValueError, match="matrix is not in the algebra"):
        build_nilpotent(Partition((3, 2, 2, 1)), 1)
    assert len(dropped) == 1


def _gl_jordan_reference(alg, block, mu) -> dict:
    """e_{a,b} - e_{-b,-a} for each consecutive pair (a, b) of a Jordan
    block, with the signs written by hand."""
    ent = {}
    pos = 0
    for part in mu.parts:
        for s in range(part - 1):
            a, b = block[pos + s], block[pos + s + 1]
            ent[(alg.pos[a], alg.pos[b])] = 1
            ent[(alg.pos[-b], alg.pos[-a])] = -1
        pos += part
    return ent


def test_gl_jordan_blocks_read_the_algebras_root_vectors():
    # every gl block size, place and Jordan type with N <= 10; a block
    # holds consecutive positive indices, outermost first, as _block_indices
    # lays them out
    count = 0
    for eps in (1, -1):
        for n in range(2, 11):
            if eps == -1 and n % 2:
                continue
            alg = build_algebra(n, eps)
            for size in range(1, n // 2 + 1):
                for top in range(size, n // 2 + 1):
                    block = tuple(range(top, top - size, -1))
                    for mu in all_partitions(size):
                        assert _embed_gl_jordan(alg, block, mu) == _gl_jordan_reference(alg, block, mu)
                        count += 1
    assert count == 186


def test_coordinates_refuse_an_h_off_a_corrupted_grading_weight():
    # weight + 1 gives h + 1: it still brackets e to 2e, yet it is not in g,
    # for weight(-a) != -weight(a)
    rep = build_nilpotent(Partition((3, 2, 2, 1)), 1)
    gr = dynkin_grading(rep)
    rep._grading = DynkinGrading({a: w + 1 for a, w in gr.weight.items()}, gr.degree, gr.layers)
    with pytest.raises(ValueError, match="matrix is not in the algebra"):
        complete_sl2(rep)


def test_an_h_coordinate_outside_g0_fails_the_sl2_relations(monkeypatch):
    # coordinates that put h on a root vector of g(2): the solve reads only
    # the g(0) coordinates, so f misses h and [e, f] = h fails, with no lookup error
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    k = dynkin_grading(rep).layer(2)[0]
    monkeypatch.setattr(rep.algebra, "coordinates", lambda x: {k: 1})
    with pytest.raises(AssertionError, match="sl2 relations fail"):
        complete_sl2(rep)


def test_orbit_dimensions():
    assert orbit_dimension(build_nilpotent(Partition((2, 1, 1)), -1)) == (4, 2)
    assert orbit_dimension(build_nilpotent(Partition((4,)), -1)) == (8, 4)
    assert orbit_dimension(build_nilpotent(Partition((1, 1, 1, 1)), -1)) == (0, 0)


def test_formula_agrees_with_kernel():
    for n in range(2, 9):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                rep = build_nilpotent(lam, eps)
                rank, kernel = rank_kernel(ad_e_matrix(rep).change_ring(QQ))
                assert len(kernel) == centralizer_dim_formula(lam, eps), lam


def test_rank_nullity():
    for lam, eps in [(Partition((3, 3)), 1), (Partition((4, 2)), -1)]:
        rep = build_nilpotent(lam, eps)
        rank, kernel = rank_kernel(ad_e_matrix(rep).change_ring(QQ))
        assert rank + len(kernel) == rep.algebra.dim


def test_induce_borel_and_siegel():
    borel = InductionDatum(4, -1, ((1, Partition((1,))), (1, Partition((1,)))), Partition(()))
    assert induce_orbit(borel) == Partition((4,))
    assert orbit_dim_formula(Partition((4,)), -1) == 0 + 2 * 4
    siegel = InductionDatum(4, -1, ((2, Partition((1, 1))),), Partition(()))
    assert induce_orbit(siegel) == Partition((2, 2))
    assert orbit_dim_formula(Partition((2, 2)), -1) == 0 + 2 * 3


def test_induction_dimension_identity_sweep():
    # dim Ind = dim levi orbit + 2 dim n, certified inside generic_datum_sample
    for datum in enumerate_levi_data(6, -1):
        try:
            generic_datum_sample(datum)
        except ValueError:
            continue  # zero nilradical


def test_rigidity_oracle_examples():
    assert rigidity_oracle(Partition((2, 1, 1)), -1)
    assert not rigidity_oracle(Partition((4,)), -1)
    witness = find_induction_witness(Partition((2, 2, 1, 1)), -1)
    assert witness is not None
    assert witness.gl_blocks == ((1, Partition((1,))),)
    assert witness.residual == Partition((1, 1, 1, 1))


def test_zero_orbit_rigid():
    assert rigidity_oracle(Partition((1,) * 6), -1)
    assert rigidity_oracle(Partition((1,) * 7), 1)


def test_oracle_guard():
    with pytest.raises(ValueError):
        rigidity_oracle(Partition((2, 2, 2, 2, 1, 1)), -1)


def test_criterion_matches_oracle_small():
    # the type-A-like algebras too: so_2 has no proper parabolic, so its
    # zero orbit (1,1) is rigid although 1 occurs twice
    for n in range(2, 8):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                assert is_rigid(lam, eps) == rigidity_oracle(lam, eps), (lam, eps)


def _witness_embedding_every_datum(lam, eps):
    """The exhaustive search: every datum of enumerate_levi_data by
    increasing total gl size, reading dim n off the embedding, before the
    dimension test."""
    target_dim = orbit_dim_formula(lam, eps)
    for datum in enumerate_levi_data(lam.size, eps):
        _, _, n_idx = embed_datum(datum)
        if not n_idx:
            continue
        if datum_levi_orbit_dim(datum) + 2 * len(n_idx) != target_dim:
            continue
        if induce_orbit(datum) == lam:
            return datum
    return None


RIGIDITY_SWEEP = [(lam, eps) for n in range(2, 9) for eps in (1, -1)
                  if (eps == 1 or n % 2 == 0) and not build_algebra(n, eps).type_a_like
                  for lam in admissible_partitions(n, eps)]


# at N = 10: sp_10 (3,3,2,1,1) is rigid, so every datum is tried; (3,3,2,2)
# is induced from a gl_3 Levi, past the data of smaller gl shapes
N10_CASES = [(Partition((3, 3, 2, 1, 1)), -1), (Partition((3, 3, 2, 2)), -1)]


@pytest.mark.parametrize("lam, eps", RIGIDITY_SWEEP + N10_CASES, ids=lambda v: str(v))
def test_witness_matches_the_search_that_embeds_every_datum(lam, eps):
    assert find_induction_witness(lam, eps) == _witness_embedding_every_datum(lam, eps)


def test_the_rigidity_sweep_certifies_only_maximal_data(monkeypatch):
    # 39 certified inductions at N <= 8, each on a datum gl_q[1^q] x g_{N-2q}[nu];
    # the search over every datum made 42
    certified = []
    sample = orbits.generic_datum_sample
    monkeypatch.setattr(orbits, "generic_datum_sample", lambda datum: certified.append(datum) or sample(datum))
    for lam, eps in RIGIDITY_SWEEP:
        rigidity_oracle(lam, eps)
    assert len(certified) == 39
    assert all(d.gl_blocks == ((d.gl_sizes[0], Partition((1,) * d.gl_sizes[0])),) for d in certified)
