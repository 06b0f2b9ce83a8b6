"""Reduction mod p, restrictedness, induced modules and KW bookkeeping."""

from fractions import Fraction

import pytest

from orbitforge.rings import GF
from orbitforge.linalg import SparseMatrix
from orbitforge.partitions import Partition
from orbitforge.algebra import build_algebra
from orbitforge.orbits import InductionDatum, build_nilpotent, dynkin_grading, embed_datum, orbit_dim_formula
from orbitforge.enveloping import UAlgebra
from orbitforge.modular import (
    InducedModule,
    _power,
    reduce_mod_p,
    centralizer_dim_mod_p,
    graded_dims_mod_p,
    build_induced_module,
    verify_induced_module,
    submodule_probe,
    kw_bookkeeping,
)

from dense_matrices import to_dense

BOREL_SP4 = InductionDatum(4, -1, ((1, Partition((1,))), (1, Partition((1,)))), Partition(()))
SIEGEL_SP4 = InductionDatum(4, -1, ((2, Partition((1, 1))),), Partition(()))


# -- a dense reference: matrices as lists of rows of ints mod p -----------------


def _dense_eye(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dense_mul(a: list, b: list, p: int) -> list:
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                acc = [u + x * v for u, v in zip(acc, b[k])]
        out.append([u % p for u in acc])
    return out


def _dense_comb(terms, n: int, p: int) -> list:
    """sum of c * m over (c, m) in terms, mod p."""
    out = [[0] * n for _ in range(n)]
    for c, m in terms:
        out = [[(u + c * v) % p for u, v in zip(r, s)] for r, s in zip(out, m)]
    return out


def _dense_power(m: list, p: int) -> list:
    out = _dense_eye(len(m))
    for _ in range(p):
        out = _dense_mul(out, m, p)
    return out


def dense_module_check(module, mod):
    """The identities of verify_induced_module on dense matrices: every
    bracket [x_a, x_b] and x^p = x^{[p]} + chi(x)^p on every basis element."""
    p, n = module.p, module.dim
    act = [to_dense(m) for m in module.action]
    for a in range(len(act)):
        for b in range(a + 1, len(act)):
            lhs = _dense_comb([(1, _dense_mul(act[a], act[b], p)), (-1, _dense_mul(act[b], act[a], p))], n, p)
            rhs = _dense_comb([(v % p, act[c]) for c, v in mod.alg.structure[a].get(b, ())], n, p)
            assert lhs == rhs, f"dense bracket check fails at pair ({a}, {b})"
    for k in range(len(act)):
        rhs = _dense_comb([(v, act[c]) for c, v in mod.p_power[k].items() if v]
                          + [(pow(module.chi[k], p, p), _dense_eye(n))], n, p)
        assert _dense_power(act[k], p) == rhs, f"dense p-character check fails at basis {k}"


def dense_ad_power_check(mod, k: int):
    """(ad x)^p = ad(x^{[p]}) on dense matrices, for basis element k."""
    ring = GF(mod.p)
    power = _dense_power(to_dense(mod.alg.ad({k: 1}, ring)), mod.p)
    assert power == to_dense(mod.alg.ad(mod.p_power[k], ring))


def test_reduce_rejects_two():
    with pytest.raises(ValueError):
        reduce_mod_p(build_algebra(4, -1), 2)


def test_restrictedness_cartan_diagonal():
    # diagonal case: ad(h^{[3]}) = (ad h)^3 reduces to eigenvalue arithmetic
    mod = reduce_mod_p(build_algebra(4, -1), 3)
    dense_ad_power_check(mod, 0)  # Cartan comes first in the basis order


def test_restrictedness_sweep():
    # full table checked inside reduce_mod_p
    for p in (3, 5, 7):
        reduce_mod_p(build_algebra(4, -1), p)
        reduce_mod_p(build_algebra(5, 1), p)


class _CountedMatrix:
    """A SparseMatrix whose @ counts the products taken."""

    def __init__(self, m, count: list):
        self.m, self.count = m, count

    def __matmul__(self, other):
        self.count[0] += 1
        return _CountedMatrix(self.m @ other.m, self.count)


@pytest.mark.parametrize("k", range(1, 13))
def test_power_by_squaring_matches_the_product_loop(k):
    # ad x for x a sum of all basis elements of sp_4 over F_7: neither
    # nilpotent nor diagonal
    alg = build_algebra(4, -1)
    m = alg.ad({i: 1 + i % 3 for i in range(alg.dim)}, GF(7))
    want = m
    for _ in range(k - 1):
        want = want @ m
    count = [0]
    got = _power(_CountedMatrix(m, count), k)
    assert got.m == want
    # one squaring per bit below the top one, one product per further set bit
    assert count[0] == k.bit_length() + bin(k).count("1") - 2 <= 2 * (k.bit_length() - 1)


def test_a_large_prime_takes_logarithmically_many_products(monkeypatch):
    # p-th powers of sp_4's basis, restrictedness and their check at
    # p = 100003 (17 bits, 6 set): at most 2 * 16 products per power
    calls = [0]
    matmul = SparseMatrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    alg = build_algebra(4, -1)
    mod = reduce_mod_p(alg, 100003)
    assert mod.p == 100003 and len(mod.p_power) == alg.dim
    assert calls[0] <= 2 * alg.dim * 2 * 16


def test_chi_vanishes_on_m_brackets_mod_p():
    from orbitforge.slices import build_m
    from orbitforge.linalg import commutator
    from test_slices import _trace

    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    msub = build_m(rep)
    alg = rep.algebra
    for p in (3, 5):
        ring = GF(p)
        mats = [alg.from_coordinates(v) for v in msub.basis]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                val = alg.killing_form()["trace_constant"] * _trace(rep.e @ commutator(mats[i], mats[j]))
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


def test_block_ranks_are_taken_once_per_rep_and_prime(monkeypatch):
    from orbitforge import modular

    calls = []
    real = modular.row_span
    monkeypatch.setattr(modular, "row_span", lambda m: calls.append(m.ring) or real(m))
    rep = build_nilpotent(Partition((3, 2, 2, 1)), 1)
    layers = len(dynkin_grading(rep).layers)
    ranks = graded_dims_mod_p(rep, 3)
    assert len(calls) == layers
    assert centralizer_dim_mod_p(rep, 3) == rep.algebra.dim - sum(ranks.values())
    assert graded_dims_mod_p(rep, 3) == ranks and len(calls) == layers   # no row_span call
    graded_dims_mod_p(rep, 5)
    assert len(calls) == 2 * layers and calls[-1] == GF(5)
    # a second representative of the same orbit takes its own ranks
    other = build_nilpotent(Partition((3, 2, 2, 1)), 1)
    assert graded_dims_mod_p(other, 3) == ranks and len(calls) == 3 * layers


def test_baby_verma_sp4_regular():
    datum = BOREL_SP4
    module = build_induced_module(datum, 3)  # identities verified inside
    assert module.dim == 81
    book = kw_bookkeeping(Partition((4,)), -1, 3, datum)
    assert book["small_dimension"] == 81
    assert book["induction_identity"]
    probe = submodule_probe(module)
    assert probe["full_closures"] == 10


def test_siegel_module_sp4():
    datum = SIEGEL_SP4
    module = build_induced_module(datum, 3)
    assert module.dim == 27
    book = kw_bookkeeping(Partition((2, 2)), -1, 3, datum)
    assert book["d_chi"] == 3 and book["small_dimension"] == 27
    assert book["dim_n"] == 3 and book["d_chi_bar"] == 0
    probe = submodule_probe(module)
    assert probe["full_closures"] == 10


def _full_closure_ranks(module, seeds: int) -> list:
    """The probe's ranks from a breadth-first closure on dense lists run to
    its end: every image of every new vector is reduced, also after the
    span is full.  Shares no code with linalg."""
    from orbitforge.modular import _probe_seed
    from test_packed_span import DenseEchelon

    p, dim = module.p, module.dim
    mats = [m.entries for m in module.action]
    ranks = []
    for s in range(seeds):
        seed = _probe_seed(s, dim, p)
        vec = [seed.get(i, 0) for i in range(dim)]
        basis = DenseEchelon(p)
        frontier = [vec] if basis.add(vec) else []
        while frontier:
            nxt = []
            for v in frontier:
                for ent in mats:
                    w = [0] * dim
                    for (r, c), y in ent.items():
                        w[r] = (w[r] + v[c] * y) % p
                    if basis.add(w):
                        nxt.append(w)
            frontier = nxt
        ranks.append(len(basis.rows))
    return ranks


@pytest.mark.parametrize("datum", [SIEGEL_SP4, BOREL_SP4])
def test_probe_stops_at_full_rank_with_the_full_closure_ranks(datum, monkeypatch):
    from orbitforge.linalg import _PackedSpan

    module = build_induced_module(datum, 3)
    want = _full_closure_ranks(module, 10)
    adds = []
    insert = _PackedSpan._insert

    def counting(self, v):
        adds.append(1)
        return insert(self, v)

    monkeypatch.setattr(_PackedSpan, "_insert", counting)
    probe = submodule_probe(module)
    assert probe["ranks"] == want == [module.dim] * 10
    # a full closure reduces all dim images under each of the dim g actions
    # for every seed; the probe stops as soon as the span is the whole module
    assert 0 < len(adds) < 10 * module.dim * len(module.action)


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
            action.append(SparseMatrix(dim, dim, GF(p), {(i, j): 1}))
    probe = submodule_probe(SimpleNamespace(p=p, dim=dim, action=action))
    in_w = [not any(x for i, x in _probe_seed(s, dim, p).items() if i >= w_dim) for s in range(10)]
    assert any(in_w) and not all(in_w)
    assert probe["ranks"] == [w_dim if w else dim for w in in_w] == _full_closure_ranks(
        SimpleNamespace(p=p, dim=dim, action=action), 10)
    assert probe["full_closures"] == in_w.count(False)


def test_induced_module_rejects_nonzero_levi_orbit():
    datum = InductionDatum(4, -1, ((2, Partition((2,))),), Partition(()))
    with pytest.raises(ValueError):
        build_induced_module(datum, 3)


def test_zero_orbit_builds_the_sp4_data():
    assert InductionDatum.zero_orbit(4, -1, (1, 1)) == BOREL_SP4
    assert InductionDatum.zero_orbit(4, -1, (2,)) == SIEGEL_SP4


def test_kw_zero_orbit():
    # d(chi) = dim O / 2 = 0, so the small dimension is p^0 = 1
    assert orbit_dim_formula(Partition((1, 1, 1, 1)), -1) == 0


@pytest.mark.parametrize("datum, dim", [(SIEGEL_SP4, 27), (BOREL_SP4, 81)])
def test_dense_reference_accepts_the_sp4_modules(datum, dim):
    module = build_induced_module(datum, 3)
    alg, _, _ = embed_datum(datum)
    mod = reduce_mod_p(alg, 3)
    assert module.dim == dim
    assert all(m.ring == GF(3) and (m.nrows, m.ncols) == (dim, dim) for m in module.action)
    dense_module_check(module, mod)
    for k in range(alg.dim):
        dense_ad_power_check(mod, k)


@pytest.mark.parametrize("datum", [SIEGEL_SP4, BOREL_SP4])
def test_a_corrupted_action_entry_is_caught_by_both_checks(datum):
    module = build_induced_module(datum, 3)
    alg, _, _ = embed_datum(datum)
    mod = reduce_mod_p(alg, 3)
    k = len(module.action) - 1
    entries = dict(module.action[k].entries)
    rc = min(entries)
    entries[rc] = (entries[rc] + 1) % 3
    action = list(module.action)
    action[k] = SparseMatrix(module.dim, module.dim, GF(3), entries)
    bad = InducedModule(module.p, module.dim, action, module.chi)
    with pytest.raises(AssertionError, match=r"pair \(2, 9\)"):
        verify_induced_module(bad, mod)
    with pytest.raises(AssertionError):
        dense_module_check(bad, mod)


def test_the_bracket_law_makes_no_matrix_products(monkeypatch):
    # the pair law runs through linalg.bracket_residues; the only products
    # left are the p-th powers, two per basis element at p = 3
    module = build_induced_module(SIEGEL_SP4, 3)
    alg, _, _ = embed_datum(SIEGEL_SP4)
    mod = reduce_mod_p(alg, 3)
    calls = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    verify_induced_module(module, mod)
    assert alg.dim == 10 and len(calls) == 20


LEVI_SP4 = InductionDatum(4, -1, ((1, Partition((1,))),), Partition((1, 1)))


@pytest.mark.parametrize("datum, p, digest", [
    (LEVI_SP4, 3, "08d14ecd13dddb529cec3bd57d7c53c90d44a4c2"),
    (LEVI_SP4, 5, "70dbb53aef286deb11c6edaef3364194db6eff1f"),
    (SIEGEL_SP4, 3, "8356819be7c175725c60b62ce7b1963f197d410d"),
    (SIEGEL_SP4, 5, "517aadea507dabfa9840a766ab8e3a1d0c7b1266"),
    (BOREL_SP4, 3, "00edad4c9919f0117fc44fe6b6bc87d82a63cf1e"),
    (BOREL_SP4, 5, "438338cade8000d8767caa27020f460c9c56bc2a"),
    (InductionDatum.zero_orbit(5, 1, (1, 1)), 3, "e22056dcc22da9a545890732ccc86be01c16d121"),
    (InductionDatum.zero_orbit(5, 1, (1,)), 3, "96ed2267f68d108cdffa98018a0274e83b9b25f0"),
    (InductionDatum.zero_orbit(5, 1, (2,)), 3, "d638e2d9462731cbdba94c2c02879f4e9928cf5c"),
    (InductionDatum.zero_orbit(6, -1, (1,)), 3, "227c8002f704d221d802790fb46f81e2708ce3da"),
    (InductionDatum.zero_orbit(7, 1, (1,)), 3, "65f2952d3455376e5c5161e67fdd0f35d1fd2d0c"),
    (InductionDatum.zero_orbit(5, 1, (1, 1)), 5, "1b5496b33ac442bebb68ac9da83fc1a1aafcc9e5"),
])
def test_action_matrices_are_unchanged(datum, p, digest):
    # sha1 of every action matrix's sorted entries.  The sp_4 values were
    # recorded from an unmemoised builder, which commuted each generator
    # past every letter; the so_5, sp_6 and so_7 values from a memoised
    # builder on exponent vectors, before the modules moved to UAlgebra
    import hashlib

    module = build_induced_module(datum, p)
    entries = repr([sorted(m.entries.items()) for m in module.action])
    assert hashlib.sha1(entries.encode()).hexdigest() == digest


def test_the_restricted_action_closes_a_p_run():
    # one letter a with a^[p] = a and chi(a) = 2: prepending a to a.a.1
    # gives a^3 = a^[3] + chi(a)^3 = a + 8 = a + 2 mod 3
    U = UAlgebra(1, {}, restricted=(3, [{0: 1}]), chi=[2])

    def pairs(flat):
        return dict(zip(flat[::2], flat[1::2]))

    assert pairs(U.act(0, ())) == {(0,): 1}
    assert pairs(U.act(0, (0,))) == {(0, 0): 1}
    assert pairs(U.act(0, (0, 0))) == {(0,): 1, (): 2}
    assert pairs(UAlgebra(1, {}, restricted=(3, [{}]), chi=[3]).act(0, (0, 0))) == {}


def test_a_restricted_action_refuses_a_non_integral_table():
    # memoised values are reduced mod p, which needs D = 1
    bracket = {(1, 0): {1: Fraction(1, 2)}}
    with pytest.raises(ValueError, match="D = 2"):
        UAlgebra(2, bracket, chi=(0, 0), restricted=(3, [{}, {}]))
    assert UAlgebra(2, bracket).denominator == 2
    assert UAlgebra(2, {(1, 0): {1: Fraction(4, 2)}}, chi=(0, 0), restricted=(3, [{}, {}])).denominator == 1
