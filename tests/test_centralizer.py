"""Centraliser bases, the zeta spanning system and generation."""

import pytest

from orbitforge.partitions import Partition, admissible_partitions, is_almost_rigid
from orbitforge.orbits import build_nilpotent, centralizer_dim_formula
from orbitforge.centralizer import (
    CentralizerBasis,
    compute_centralizer,
    build_zeta_system,
    verify_zeta_system,
    derived_subalgebra,
    predicted_complement_size,
    check_generation,
)


def test_dimensions():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    assert compute_centralizer(rep).dim == 6
    rep8 = build_nilpotent(Partition((3, 3, 1, 1)), 1)
    assert compute_centralizer(rep8).dim == 10
    zero = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    assert compute_centralizer(zero).dim == 10


def test_good_grading_from_kernel():
    for parts, eps in [((2, 1, 1), -1), ((5, 2, 2, 1), 1), ((4,), -1)]:
        cb = compute_centralizer(build_nilpotent(Partition(parts), eps))
        assert all(d >= 0 for d in cb.degrees)


def test_zeta_grade_and_sign_examples():
    lam = Partition((2, 1, 1))
    zs = build_zeta_system(lam, -1)
    # grade of zeta_1^{1, lam_1 - 1} is zero (1-based naming; tuples 0-based)
    assert zs.degree((0, 0, lam.parts[0] - 1)) == 0
    # epsilon_{1,1,1} = (-1)^{lambda_1 - 1} = -1
    assert zs.sign[(0, 0, 1)] == -1


def test_zeta_full_verification_small():
    for parts, eps in [((2, 1, 1), -1), ((3, 1), 1), ((2, 2), -1), ((5, 5, 4), -1)]:
        lam = Partition(parts)
        summary = verify_zeta_system(build_zeta_system(lam, eps), full_bracket=lam.size <= 8)
        assert summary["span_dim"] == centralizer_dim_formula(lam, eps)


def test_zeta_bracket_instance_2_1_1():
    # one bracket checked term by term: [zeta_1^{2,0}, zeta_2^{1,0}] for
    # lambda = (2,1,1).  In 0-based indices i=0, j=1, s=0 against k=1, l=0,
    # r=0: the delta_{il} term is zeta_1^{1,-1} = 0, the delta_{jk} term is
    # -zeta_0^{0,0}, and both epsilon terms vanish since inv[0] = 0 != 1.
    zs = build_zeta_system(Partition((2, 1, 1)), -1)
    from orbitforge.linalg import commutator

    lhs = commutator(zs.zetas[(0, 1, 0)], zs.zetas[(1, 0, 0)])
    assert zs.inv[0] == 0
    assert lhs == -zs.zetas[(0, 0, 0)]


def test_zeta_count_identity_n_le_10():
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                zs = build_zeta_system(lam, eps)
                summary = verify_zeta_system(zs, full_bracket=False)
                assert summary["orbit_count"] == summary["dim"], lam


def test_zeta_rejects_bad_involution():
    lam = Partition((2, 1, 1))
    with pytest.raises(AssertionError):
        build_zeta_system(lam, -1, inv=(0, 1, 2))  # 1s must pair for sp


def test_derived_subalgebra_examples():
    cb = compute_centralizer(build_nilpotent(Partition((2, 1, 1)), -1))
    assert derived_subalgebra(cb).codim == 0

    # (2,2) is not almost rigid: the displayed complement-set formula does
    # not apply; the honest codimension is 2 with degrees {0, 2}
    cb22 = compute_centralizer(build_nilpotent(Partition((2, 2)), -1))
    der = derived_subalgebra(cb22)
    assert der.codim == 2
    assert der.complement_degrees == [0, 2]
    assert predicted_complement_size(Partition((2, 2)), -1) == 1  # formula, AR-only


def test_derived_subalgebra_rejects_brackets_outside_the_span():
    # e_alpha and e_{-alpha} of sp_4 span no subalgebra: their bracket is the
    # coroot h_alpha, which a codimension count alone would not notice
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    alg = rep.algebra
    unit = [tuple(int(i == k) for i in range(alg.dim)) for k in range(alg.dim)]
    pos, neg = alg.labels.index(("e", (0, 2))), alg.labels.index(("e", (0, -2)))
    assert any(alg.bracket(unit[pos], unit[neg]))
    with pytest.raises(AssertionError, match=r"2,1,1.*eps = -1.*degree 1"):
        derived_subalgebra(CentralizerBasis(rep, [unit[pos], unit[neg]], [0, 1]))
    # a closed pair passes: [e_alpha, h] is a multiple of e_alpha
    h = alg.labels.index(("h", 0))
    assert derived_subalgebra(CentralizerBasis(rep, [unit[h], unit[pos]], [0, 0])).codim >= 0


def test_predicted_complement_matches_almost_rigid():
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                if not is_almost_rigid(lam):
                    continue
                cb = compute_centralizer(build_nilpotent(lam, eps))
                der = derived_subalgebra(cb)
                assert der.codim == predicted_complement_size(lam, eps), lam
                assert all(d == 0 for d in der.complement_degrees), lam


def test_generation_examples():
    gen, witness = check_generation(compute_centralizer(build_nilpotent(Partition((2, 1, 1)), -1)))
    assert gen
    gen4, w4 = check_generation(compute_centralizer(build_nilpotent(Partition((4,)), -1)))
    assert not gen4  # g^e(0) = g^e(1) = 0 while g^e != 0
    zero = compute_centralizer(build_nilpotent(Partition((1, 1, 1, 1)), -1))
    genz, wz = check_generation(zero)
    assert genz and wz == {}  # everything in degree 0
