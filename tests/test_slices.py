"""Skew form, Lagrangian splitting, the subalgebra m, slices, saturation."""

from fractions import Fraction

import pytest

from orbitforge import slices
from orbitforge.rings import QQ, GF, ZZ, is_two_power_denominator
from orbitforge.linalg import SparseMatrix, commutator, inverse_rows
from orbitforge.partitions import Partition, admissible_partitions
from orbitforge.orbits import ad_e_block, build_nilpotent, dynkin_grading, orbit_dimension
from orbitforge.slices import (
    SkewForm,
    weight_data,
    build_psi,
    split_lagrangian,
    build_m,
    slice_complement,
    integral_saturation,
)

from dense_matrices import from_dense, to_dense


def test_psi_sp4_211():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    psi = build_psi(rep)
    assert len(psi.minus_idx) == 1 and len(psi.plus_idx) == 1
    c = psi.gram[(0, 1)]
    assert c in (1, -1, 2, -2)
    assert psi.gram[(1, 0)] == -c


def test_psi_empty_for_even_grading():
    rep = build_nilpotent(Partition((2, 2)), -1)
    psi = build_psi(rep)
    assert psi.minus_idx == [] and psi.plus_idx == []
    pair = split_lagrangian(rep)
    assert pair.z_minus == [] and pair.z_plus == []


def _unit_over_z_half(m: SparseMatrix) -> bool:
    """m lies in GL(Z[1/2]): m and its inverse_rows inverse both have 2-power
    denominators, so det m is a signed power of 2."""
    rows = m.rows()
    inv = inverse_rows(rows)
    return inv is not None and all(is_two_power_denominator(c) for row in rows + inv for c in row.values())


def test_gram_determinant_two_power_sweep():
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                rep = build_nilpotent(lam, eps)
                psi = build_psi(rep)
                if psi.gram.nrows:
                    assert _unit_over_z_half(psi.gram), (lam, eps)


def test_unit_over_z_half_examples():
    assert _unit_over_z_half(from_dense([[Fraction(-1, 4), 3], [0, 2]], QQ))
    assert not _unit_over_z_half(from_dense([[3]], QQ))
    assert not _unit_over_z_half(from_dense([[2, Fraction(2, 3)], [0, 2]], QQ))
    assert not _unit_over_z_half(from_dense([[1, 2], [2, 4]], QQ))


def _skew_form(parts, eps, m_block):
    """The representative and skew form of a real case whose block M has the
    rows m_block."""
    rep = build_nilpotent(Partition(parts), eps)
    psi = build_psi(rep)
    assert to_dense(psi.m_block) == m_block
    return rep, psi


SO5 = ((2, 2, 1), 1, [[-2]])
SP6 = ((2, 2, 1, 1), -1, [[2, 0], [0, 2]])
THIRD = from_dense([[1, Fraction(1, 3)], [0, 1]], QQ)
RANK_ONE = from_dense([[1, 0], [0, 0]], QQ)


@pytest.mark.parametrize("case,doctor", [
    (SO5, lambda m: m.scale(3)),
    (SP6, lambda m: m.scale(3)),
    (SP6, lambda m: m @ THIRD),   # det M stays a unit, one entry leaves Z[1/2]
    (SO5, lambda m: m.scale(Fraction(1, 3))),   # M^{-1} stays over Z[1/2], M does not
    (SP6, lambda m: m @ RANK_ONE),   # singular: there is no inverse
], ids=["so5-times-3", "sp6-times-3", "sp6-third", "so5-over-3", "sp6-singular"])
def test_m_outside_gl_z_half_is_refused_before_duality(monkeypatch, case, doctor):
    def duality_ran(pair):
        raise RuntimeError("verify_duality ran")

    monkeypatch.setattr(slices, "verify_duality", duality_ran)
    rep, psi = _skew_form(*case)
    # the real M reaches the duality check
    with pytest.raises(RuntimeError, match="verify_duality ran"):
        split_lagrangian(rep)
    doctored = SkewForm(psi.wd, psi.chi, psi.minus_idx, psi.plus_idx, psi.gram, doctor(psi.m_block))
    monkeypatch.setattr(slices, "build_psi", lambda r: doctored)
    with pytest.raises(AssertionError, match=r"Z\[1/2\]"):
        split_lagrangian(rep)


def test_duality_after_normalisation_sweep():
    # includes total isotropy of both halves; verified inside split_lagrangian
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                split_lagrangian(build_nilpotent(lam, eps))


def test_duality_survives_reduction_mod_p():
    # powers of 2 stay invertible, so Psi(z'_i, z_j) = delta mod every odd p
    for parts, eps in [((2, 1, 1), -1), ((3, 2, 2, 1), 1), ((3, 3, 1, 1), 1)]:
        rep = build_nilpotent(Partition(parts), eps)
        pair = split_lagrangian(rep)
        alg = rep.algebra
        for p in (3, 5, 7):
            ring = GF(p)
            for i, zm in enumerate(pair.z_minus):
                xm = alg.from_coordinates({k: ring.coerce(c) for k, c in zm.items()}, ring)
                for j, zp in enumerate(pair.z_plus):
                    xp = alg.from_coordinates({k: ring.coerce(c) for k, c in zp.items()}, ring)
                    br = commutator(xm, xp).change_ring(QQ)
                    val = ring.coerce(alg.killing_form()["trace_constant"] * _trace(rep.e @ br))
                    assert val == (1 if i == j else 0) % p


def test_m_dimension_is_d_chi():
    for parts, eps in [((2, 1, 1), -1), ((5, 2, 2, 1), 1), ((4, 2), -1)]:
        lam = Partition(parts)
        rep = build_nilpotent(lam, eps)
        msub = build_m(rep)
        assert msub.dim == orbit_dimension(rep)[1]


def test_m_zero_orbit():
    rep = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    msub = build_m(rep)
    assert msub.dim == 0


def test_chi_m_bracket_sweep():
    # chi([m, m]) = 0, checked inside build_m for every pair
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                rep = build_nilpotent(lam, eps)
                build_m(rep)


def test_slice_weights_sp4_211():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    sl = slice_complement(rep)
    assert sorted(set(sl.degrees)) == [-2, -1, 0]
    assert sorted(set(sl.contracting_weights)) == [2, 3, 4]


def test_slice_zero_orbit():
    rep = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    sl = slice_complement(rep)
    assert len(sl.degrees) == rep.algebra.dim
    assert set(sl.contracting_weights) == {2}


def test_slice_dimension():
    for parts, eps in [((2, 2), -1), ((3, 1), 1), ((4,), -1)]:
        lam = Partition(parts)
        rep = build_nilpotent(lam, eps)
        sl = slice_complement(rep)
        from orbitforge.orbits import centralizer_dim_formula

        assert len(sl.degrees) == centralizer_dim_formula(lam, eps)


def test_saturation_fixture_22():
    rep = build_nilpotent(Partition((2, 2)), -1)
    sat = integral_saturation(rep)
    assert sat["divisors"] == [1, 1, 1, 1, 2, 2, 0, 0, 0, 0]
    assert sat["saturated"] and sat["graded_onto"] and sat["perp_identity"]


def test_saturation_zero_orbit():
    rep = build_nilpotent(Partition((1, 1, 1)), 1)
    sat = integral_saturation(rep)
    assert all(d == 0 for d in sat["divisors"])
    assert sat["saturated"]


def test_levi_parity_assertion():
    # weight-zero part of g has only even Dynkin degrees: the distinguished
    # parity property that makes the Lagrangian split well defined
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                weight_data(build_nilpotent(lam, eps))  # raises on odd degree


def _trace(m):
    """The sum of the diagonal entries of the matrix m."""
    return sum(v for (r, c), v in m.entries.items() if r == c)


def _trace_kappa(alg, x, y):
    """The matrix reference: kappa(x, y) = c trace(x y)."""
    return alg.killing_form()["trace_constant"] * _trace(x @ y)


REFERENCE_REPS = [((2, 1, 1), -1), ((2, 2, 1), 1), ((3, 2, 2, 1), 1), ((4, 2), -1)]


def test_chi_vector_and_psi_match_the_matrix_reference():
    for parts, eps in REFERENCE_REPS:
        rep = build_nilpotent(Partition(parts), eps)
        alg = rep.algebra
        psi = build_psi(rep)
        reference = {k: v for k, b in enumerate(alg.basis) if (v := _trace_kappa(alg, rep.e, b)) != 0}
        assert psi.chi == reference and list(psi.chi) == sorted(psi.chi)
        order = psi.minus_idx + psi.plus_idx
        for a, ka in enumerate(order):
            for b, kb in enumerate(order):
                br = commutator(alg.basis[ka], alg.basis[kb])
                assert psi.gram[(a, b)] == _trace_kappa(alg, rep.e, br)


def _torus_rows(pyr) -> list:
    """The pyramid rows r > 0 without crossed boxes, decreasing: one torus
    generator each."""
    crossed = {r for r, _ in pyr.crossed}
    return sorted({pyr.row[b] for b in pyr.boxes() if pyr.row[b] > 0 and pyr.row[b] not in crossed}, reverse=True)


def test_torus_weights_match_the_matrix_reference():
    from test_algebra import _sigma   # test_algebra imports this module at its top
    ranks = []
    for parts, eps in REFERENCE_REPS:
        rep = build_nilpotent(Partition(parts), eps)
        alg, pyr = rep.algebra, rep.pyramid
        wd = weight_data(rep)
        rows = _torus_rows(pyr)
        ranks.append(len(rows))
        assert all(len(w) == len(rows) for w in wd.weights)
        for i, r in enumerate(rows):
            # the generator as a matrix: +1 on the boxes of row r, -1 on their mirrors
            ent = {}
            for b in pyr.boxes():
                if pyr.row[b] == r:
                    ent[(alg.pos[b], alg.pos[b])] = 1
                    ent[(alg.pos[-b], alg.pos[-b])] = -1
            tm = SparseMatrix(alg.N, alg.N, QQ, ent)
            assert _sigma(alg, tm) == tm and commutator(tm, rep.e).is_zero()
            for k, b in enumerate(alg.basis):
                assert commutator(tm, b) == b.scale(wd.weights[k][i])
    assert ranks == [1, 1, 1, 0]   # (4, 2) is distinguished: no torus


def _count_matrices(monkeypatch) -> list:
    """A list that grows by one for each SparseMatrix made, through its
    constructor or through _closed."""
    made = []
    init, closed = SparseMatrix.__init__, SparseMatrix._closed.__func__
    monkeypatch.setattr(SparseMatrix, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    monkeypatch.setattr(SparseMatrix, "_closed", classmethod(lambda cls, *args: made.append(1) or closed(cls, *args)))
    return made


@pytest.mark.parametrize("parts, eps", REFERENCE_REPS + [((3, 3, 2, 2, 1), 1)])
def test_weight_data_builds_no_matrix(monkeypatch, parts, eps):
    rep = build_nilpotent(Partition(parts), eps)
    dynkin_grading(rep)   # built once per representative, before counting
    reads = []
    degrees = slices.basis_degrees
    monkeypatch.setattr(slices, "basis_degrees", lambda alg, weight: reads.append(1) or degrees(alg, weight))
    made = _count_matrices(monkeypatch)
    wd = weight_data(rep)
    monkeypatch.undo()
    assert not made and len(reads) == len(_torus_rows(rep.pyramid))
    assert all(len(w) == len(reads) for w in wd.weights)


def test_perp_identity_fails_for_a_non_centralizing_vector(monkeypatch):
    import orbitforge.centralizer as centralizer
    import orbitforge.slices as slices

    rep = build_nilpotent(Partition((2, 2)), -1)
    cb = centralizer.compute_centralizer(rep)
    assert integral_saturation(rep)["perp_identity"]
    # swap one centraliser vector for a basis vector off g^e: the ranks still
    # add up, so only the containment (ad e)^T G z = 0 can catch it
    e = rep.e_coords
    bad = next(k for k in range(rep.algebra.dim) if rep.algebra.sparse_bracket(e, {k: 1}))
    vectors = [{bad: 1}] + cb.vectors[1:]
    monkeypatch.setattr(slices, "compute_centralizer",
                        lambda rep: centralizer.CentralizerBasis(rep, vectors, cb.degrees))
    assert not integral_saturation(rep)["perp_identity"]


SATURATION_SNF_COUNT = 82
SATURATION_SNF_DIGEST = "ec0b524f15088ed355909355305115d2b7e77b07"
# the SNFs of the blocks g(d) -> g(d+2) from d >= 0 with a nonzero target,
# which the suite also took when it reduced the whole ad e: these records
# are the same when ad e is reduced only block by block
GRADED_SNF_COUNT = 38
GRADED_SNF_DIGEST = "f516cb6622d3d7f29d2e48afc6631f64d6775f7f"


def test_snf_certificates_of_the_saturation_sweep_are_unchanged(monkeypatch):
    # sha1 of the divisors, U and V of every SNF the saturation suite takes
    # for N <= 6.  A different pivot choice would give other certificates,
    # and with them other kernel bases (integer_kernel_basis reads V), so
    # other W bases and characters
    import hashlib

    seen, graded = [], []

    def recording(m):
        res = snf(m)
        seen.append((m, (res.divisors, sorted(res.left.entries.items()), sorted(res.right.entries.items()))))
        return res

    snf = slices.smith_normal_form
    monkeypatch.setattr(slices, "smith_normal_form", recording)
    for n in range(2, 7):
        for eps in (1, -1):
            for lam in admissible_partitions(n, eps):
                rep = build_nilpotent(lam, eps)
                start = len(seen)
                integral_saturation(rep)
                gr = dynkin_grading(rep)
                # each record is matched to its block by the matrix it reduced
                graded += [next(rec for m, rec in seen[start:] if m == ad_e_block(rep, d, ZZ))
                           for d in sorted(gr.layers) if d >= 0 and gr.layer(d + 2)]
    records = [rec for _, rec in seen]
    assert len(records) == SATURATION_SNF_COUNT
    assert hashlib.sha1(repr(records).encode()).hexdigest() == SATURATION_SNF_DIGEST
    assert len(graded) == GRADED_SNF_COUNT
    assert hashlib.sha1(repr(graded).encode()).hexdigest() == GRADED_SNF_DIGEST
