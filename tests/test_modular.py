"""Reduction mod p, restrictedness, induced modules and KW bookkeeping."""

import numpy as np
import pytest

from orbitforge.rings import GF
from orbitforge.partitions import Partition
from orbitforge.algebra import build_algebra
from orbitforge.orbits import InductionDatum, build_nilpotent
from orbitforge.modular import (
    reduce_mod_p,
    _ad_numpy,
    p_character,
    centralizer_dim_mod_p,
    graded_dims_mod_p,
    build_induced_module,
    submodule_probe,
    kw_bookkeeping,
    theta_coefficients_reduce,
)


def test_reduce_rejects_two():
    with pytest.raises(ValueError):
        reduce_mod_p(build_algebra(4, -1), 2)


def test_restrictedness_cartan_diagonal():
    # diagonal case: ad(h^{[3]}) = (ad h)^3 reduces to eigenvalue arithmetic
    mod = reduce_mod_p(build_algebra(4, -1), 3)
    h_idx = 0  # Cartan comes first in the basis order
    unit = [0] * mod.alg.dim
    unit[h_idx] = 1
    adh = _ad_numpy(mod, unit)
    cube = np.linalg.matrix_power(adh, 3) % 3
    target = _ad_numpy(mod, mod.p_power[h_idx]) % 3
    assert np.array_equal(cube, target)


def test_restrictedness_sweep():
    # full table checked inside reduce_mod_p
    for p in (3, 5, 7):
        reduce_mod_p(build_algebra(4, -1), p)
        reduce_mod_p(build_algebra(5, 1), p)


def test_p_character_support():
    rep = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    assert all(v == 0 for v in p_character(rep, 3))
    rep4 = build_nilpotent(Partition((4,)), -1)
    chi = p_character(rep4, 3)
    assert any(v != 0 for v in chi)


def test_chi_vanishes_on_m_brackets_mod_p():
    from orbitforge.slices import split_lagrangian, build_m
    from orbitforge.linalg import commutator

    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    msub = build_m(rep, split_lagrangian(rep))
    alg = rep.algebra
    for p in (3, 5):
        ring = GF(p)
        mats = [alg.from_coordinates(v) for v in msub.basis]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                val = alg.kappa(rep.e, commutator(mats[i], mats[j]))
                assert ring.coerce(val) == 0


def test_centralizer_dims_stable():
    for parts, eps in [((2, 1, 1), -1), ((2, 2, 1), 1), ((3, 1, 1), 1)]:
        rep = build_nilpotent(Partition(parts), eps)
        from orbitforge.centralizer import compute_centralizer

        want = compute_centralizer(rep).dim
        for p in (3, 5, 7):
            assert centralizer_dim_mod_p(rep, p) == want


def test_graded_rank_stability_so5():
    rep = build_nilpotent(Partition((2, 2, 1)), 1)
    base = None
    for p in (3, 5, 7):
        dims = graded_dims_mod_p(rep, p)
        if base is None:
            base = dims
        assert dims == base


def test_baby_verma_sp4_regular():
    datum = InductionDatum(4, -1, ((1, Partition((1,))), (1, Partition((1,)))), Partition(()))
    module = build_induced_module(datum, 3)  # identities verified inside
    assert module.dim == 81 and module.f_count == 4
    book = kw_bookkeeping(Partition((4,)), -1, 3, datum)
    assert book["small_dimension"] == 81
    assert book["induction_identity"]
    probe = submodule_probe(module, 10)
    assert probe["full_closures"] == 10


def test_siegel_module_sp4():
    datum = InductionDatum(4, -1, ((2, Partition((1, 1))),), Partition(()))
    module = build_induced_module(datum, 3)
    assert module.dim == 27
    book = kw_bookkeeping(Partition((2, 2)), -1, 3, datum)
    assert book["d_chi"] == 3 and book["small_dimension"] == 27
    assert book["dim_n"] == 3 and book["d_chi_bar"] == 0
    probe = submodule_probe(module, 10)
    assert probe["full_closures"] == 10


def test_probe_finds_a_proper_submodule():
    # Block upper-triangular action on F_3^4: every unit matrix E_ij except
    # those mapping the first two coordinates to the last two, so
    # W = span(e_0, e_1) is the one proper nonzero submodule.
    from types import SimpleNamespace
    from orbitforge.modular import _probe_seed

    p, dim, w_dim = 3, 4, 2
    action = []
    for i in range(dim):
        for j in range(dim):
            if i >= w_dim > j:
                continue
            m = np.zeros((dim, dim), dtype=np.int64)
            m[i, j] = 1
            action.append(m)
    probe = submodule_probe(SimpleNamespace(p=p, dim=dim, action=action), 10)
    in_w = [not _probe_seed(s, dim, p)[w_dim:].any() for s in range(10)]
    assert any(in_w) and not all(in_w)
    assert probe["ranks"] == [w_dim if w else dim for w in in_w]
    assert probe["full_closures"] == in_w.count(False)


def test_induced_module_rejects_nonzero_levi_orbit():
    datum = InductionDatum(4, -1, ((2, Partition((2,))),), Partition(()))
    with pytest.raises(ValueError):
        build_induced_module(datum, 3)


def test_induced_module_rejects_bad_lam0():
    datum = InductionDatum(4, -1, ((2, Partition((1, 1))),), Partition(()))
    with pytest.raises(ValueError):
        build_induced_module(datum, 3, lam0={0: 1})


def test_kw_zero_orbit():
    book = kw_bookkeeping(Partition((1, 1, 1, 1)), -1, 3)
    assert book["d_chi"] == 0 and book["small_dimension"] == 1


def test_theta_coefficients_reduce_mod_p():
    from orbitforge.enveloping import WSetup

    setup = WSetup(build_nilpotent(Partition((2, 1, 1)), -1))
    setup.build_all_thetas()
    for p in (3, 5, 7):
        assert theta_coefficients_reduce(setup, p)
