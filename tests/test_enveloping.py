"""PBW arithmetic, the class in Q, theta generators, the lifting loop, the
augmentation character and the Casimir element."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.linalg import SparseMatrix, commutator, inverse_rows, solve
from orbitforge.rings import QQ, integer_maps
from orbitforge.rings import is_two_power_denominator
from orbitforge.partitions import Partition, admissible_partitions
from orbitforge.algebra import build_algebra
from orbitforge.orbits import build_nilpotent
from orbitforge.enveloping import (
    UAlgebra,
    WSetup,
    elem_add,
    jems_commutator_check,
    pbw_basis_check,
    augmentation_character,
    character_kills_commutators,
    casimir,
    casimir_element,
)

from dense_matrices import from_dense
from test_linalg import _map
from test_rings import _is_canonical
from test_slices import _trace
from test_theta_once import _ints


SETUPS = {"sp4": ((2, 1, 1), -1), "so5": ((2, 2, 1), 1), "sp6": ((2, 1, 1, 1, 1), -1)}


@lru_cache(maxsize=None)
def _setup(name) -> WSetup:
    parts, eps = SETUPS[name]
    return WSetup(build_nilpotent(Partition(parts), eps))


@pytest.fixture(scope="module")
def sp4():
    return _setup("sp4")


@pytest.fixture(scope="module")
def sp6():
    s = _setup("sp6")
    s.build_all_thetas()
    return s


class FractionUAlgebra:
    """Reference straightening in U(g) on Fraction coefficients: swap the
    first out-of-order pair of letters and add their bracket, until every
    word is sorted.  It shares nothing with UAlgebra's integer left action,
    which is checked against it."""

    def __init__(self, dim: int, bracket):
        self.dim = dim
        self.bracket = bracket
        self._memo = {}

    def straighten(self, word: tuple) -> dict:
        out = self._memo.get(word)
        if out is not None:
            return out
        bad = None
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                bad = i
                break
        if bad is None:
            out = {word: Fraction(1)}
        else:
            a, b = word[bad], word[bad + 1]
            out = {}
            swapped = word[:bad] + (b, a) + word[bad + 2:]
            for t, c in self.straighten(swapped).items():
                out[t] = out.get(t, Fraction(0)) + c
            for k, cbr in self.bracket.get((a, b), {}).items():
                sub = word[:bad] + (k,) + word[bad + 2:]
                for t, c in self.straighten(sub).items():
                    out[t] = out.get(t, Fraction(0)) + cbr * c
            out = {t: c for t, c in out.items() if c != 0}
        self._memo[word] = out
        return out

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for wa, ca in x.items():
            for wb, cb in y.items():
                for t, c in self.straighten(wa + wb).items():
                    out[t] = out.get(t, Fraction(0)) + ca * cb * c
        return {t: c for t, c in out.items() if c != 0}

    def comm(self, x: dict, y: dict) -> dict:
        out = dict(self.mul(x, y))
        for t, c in self.mul(y, x).items():
            out[t] = out.get(t, Fraction(0)) - c
        return {t: c for t, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _reference(setup) -> FractionUAlgebra:
    """The Fraction reference on setup's bracket table, one per setup."""
    return FractionUAlgebra(setup.dim, setup.U.bracket)


@lru_cache(maxsize=None)
def _no_m(setup) -> UAlgebra:
    """The kernel on setup's bracket table with no m-letters: Q is U(g)."""
    return UAlgebra(setup.dim, setup.U.bracket)


def _chevalley_table(scale: Fraction) -> dict:
    """so_5's out-of-order brackets in the Chevalley basis, times scale.  A
    Lie table: without the Jacobi identity a PBW normal form depends on the
    order of rewriting."""
    alg = build_algebra(5, 1)
    return {(a, b): {c: v * scale for c, v in terms}
            for a, row in enumerate(alg.structure) for b, terms in row.items() if a > b}


LIE = {"integral": (Fraction(1), 1), "thirds": (Fraction(1, 3), 3)}   # name: (scale, D)


@lru_cache(maxsize=None)
def _algebras(name):
    """(integer kernel with no m-letters, Fraction reference) on the same
    bracket table."""
    if name in SETUPS:
        return _no_m(_setup(name)), _reference(_setup(name))
    scale, D = LIE[name]
    U = UAlgebra(10, _chevalley_table(scale))
    assert U.denominator == D
    return U, FractionUAlgebra(10, U.bracket)


COEFFS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 8]))


def _elements(dim: int, max_len: int):
    words = st.lists(st.integers(0, dim - 1), max_size=max_len).map(tuple)
    return st.dictionaries(words, COEFFS, max_size=4)


def _assert_same(got: dict, want: dict):
    # the same values, each in QQ's canonical form
    assert got == want
    assert all(_is_canonical(c) for c in got.values())


@pytest.mark.parametrize("name", [*SETUPS, *LIE])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_integer_straightening_matches_the_fraction_reference(name, data):
    # the integer left action with no m-letters is the product in U(g)
    U, ref = _algebras(name)
    x, y = (data.draw(_elements(ref.dim, 2 if name in SETUPS else 3)) for _ in range(2))
    _assert_same(U.q_mul(x, y), ref.mul(x, y))
    _assert_same(U.q_comm(x, y), ref.comm(x, y))
    assert all(type(c) is int for memo in U._act_memo for out in memo.values() for c in out[1::2])


@pytest.mark.parametrize("name", [*SETUPS, *LIE])
def test_reference_comparison_sees_dyadic_and_non_dyadic_coefficients(name):
    U, ref = _algebras(name)
    rng = random.Random(7)
    coeffs = []
    for _ in range(12):
        x, y = ({tuple(rng.randrange(ref.dim) for _ in range(rng.randint(1, 2))):
                 Fraction(rng.randint(-6, 6) or 1, rng.choice([1, 2, 3, 4]))
                 for _ in range(3)} for _ in range(2))
        for got, want in ((U.q_mul(x, y), ref.mul(x, y)), (U.q_comm(x, y), ref.comm(x, y))):
            _assert_same(got, want)
            coeffs += got.values()
    assert any(is_two_power_denominator(c) and c.denominator > 1 for c in coeffs)
    assert any(not is_two_power_denominator(c) for c in coeffs)


def _dense_w_coords(tinv, v):
    return tuple(sum((r * x for r, x in zip(row, v)), Fraction(0)) for row in tinv)


def _assert_is_the_dense_reference(got: dict, want: tuple):
    # the sparse coordinates, keys ascending with no zero value, read key by
    # key (a missing key as 0) against the dense reference
    assert list(got) == sorted(got) and set(got) <= set(range(len(want)))
    assert all(c != 0 and _is_canonical(c) for c in got.values())
    assert tuple(got.get(i, 0) for i in range(len(want))) == want


ENTRY = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 7]))


@pytest.mark.parametrize("name", [*SETUPS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_to_w_coords_matches_the_dense_inverse(name, data):
    setup = _setup(name)
    # the inverse of T, whose columns are the basis vectors, as dense rows
    t_rows = [{j: x[i] for j, x in enumerate(setup.basis_vectors) if i in x} for i in range(setup.dim)]
    tinv = [[row.get(j, 0) for j in range(setup.dim)] for row in inverse_rows(t_rows)]
    v = data.draw(st.lists(ENTRY, min_size=setup.dim, max_size=setup.dim))
    _assert_is_the_dense_reference(setup._w_coords(_map(v, QQ)), _dense_w_coords(tinv, v))


@settings(max_examples=40, deadline=None)
@given(st.lists(ENTRY, min_size=4, max_size=4))
def test_to_w_coords_with_a_non_unit_common_denominator(v):
    # det 15: the inverse has denominators 3 and 5
    # the rows of A^{-1} are taken as the columns of T^{-1}
    a = [[3, 1, -2, 0], [0, 1, 4, 1], [0, 0, 5, 2], [0, 0, 0, 1]]
    cols = inverse_rows([_map(row, QQ) for row in a])
    setup = WSetup.__new__(WSetup)
    setup._tinv_den, setup._tinv_cols = integer_maps(cols)
    assert setup._tinv_den == 15
    tinv = [[col.get(i, 0) for col in cols] for i in range(4)]
    _assert_is_the_dense_reference(setup._w_coords(_map(v, QQ)), _dense_w_coords(tinv, v))


# -- the matrix path, kept as the reference ---------------------------------------
#
# Brackets as matrix commutators and coordinates recovered by alg.coordinates,
# the way the enveloping layer computed before it moved onto the structure
# table and the Killing Gram, and products in U(g) by the Fraction reference.


def _embed_matrix(setup, m) -> dict:
    return setup.embed(setup.alg.coordinates(m))


def _matrix(setup, xs: dict) -> SparseMatrix:
    """The matrix of the element of g with Chevalley coordinates {index:
    scalar} xs."""
    return setup.alg.from_coordinates(xs)


def _matrix_theta_zero(setup, x) -> dict:
    ref = _reference(setup)
    t = _embed_matrix(setup, x)
    for i, v in enumerate(setup.pair.z_minus):
        br = commutator(x, _matrix(setup, v))
        if not br.is_zero():
            t = elem_add(t, ref.mul(_embed_matrix(setup, br), setup.gen(setup.z_start + i)), Fraction(1, 2))
    return _q_project_reference(setup, t)


def _matrix_theta_one(setup, x) -> dict:
    ref = _reference(setup)
    zp = [_matrix(setup, v) for v in setup.pair.z_minus]
    t = _embed_matrix(setup, x)
    for i in range(setup.s):
        br = commutator(x, zp[i])
        if not br.is_zero():
            t = elem_add(t, ref.mul(_embed_matrix(setup, br), setup.gen(setup.z_start + i)))
    for i in range(setup.s):
        for j in range(setup.s):
            brij = commutator(commutator(x, zp[i]), zp[j])
            if not brij.is_zero():
                zz = ref.mul(setup.gen(setup.z_start + j), setup.gen(setup.z_start + i))
                t = elem_add(t, ref.mul(_embed_matrix(setup, brij), zz), Fraction(1, 3))
    t = _q_project_reference(setup, t)
    for l in range(setup.s):
        defect = _q_project_reference(setup, ref.comm(setup.gen(setup.m_start + l), dict(t)))
        if defect:
            t = elem_add(t, setup.gen(setup.z_start + l), -defect[()])
    return t


def _matrix_casimir(setup) -> dict:
    alg = setup.alg
    ref = _reference(setup)
    rd, kf = alg.root_data(), alg.killing_form()
    c = kf["trace_constant"]
    l = len(rd["simple_roots"])
    amat = from_dense([[Fraction(x) for x in row] for row in rd["cartan_matrix"]], QQ)
    C = {}
    for w in rd["positive_roots"]:
        e_plus = alg._terms_to_matrix(alg._rv_terms[w])
        e_minus = alg._terms_to_matrix(alg._rv_terms[tuple(-x for x in w)])
        kap = c * _trace(e_plus @ e_minus)
        C = elem_add(C, ref.mul(_embed_matrix(setup, e_plus), _embed_matrix(setup, e_minus)), Fraction(2) / kap)
        C = elem_add(C, _embed_matrix(setup, commutator(e_plus, e_minus)), Fraction(-1) / kap)
    for i in range(l):
        sol = solve(amat, {i: 1})
        t = SparseMatrix(alg.N, alg.N, QQ)
        for a, x in sol.items():
            t = t + alg.basis[a].scale(x)
        scale = Fraction(rd["norms"][tuple(rd["simple_roots"][i])], 2 * rd["d"])
        C = elem_add(C, ref.mul(_embed_matrix(setup, t.scale(scale)), _embed_matrix(setup, alg.basis[i])))
    return C


def _same_items(got: dict, want: dict):
    # equal values in the same key order, so printed output is unchanged
    assert list(got.items()) == list(want.items())


def test_generators_come_in_degree_order_and_are_built_in_index_order():
    # _build_basis adds the kernel vectors block by block in (degree, weight)
    # order, so build_all_thetas and augmentation_character walk range(r);
    # where a generator has no commutator presentation the build stops there
    setups = 0
    for N in range(2, 9):
        for eps in (1, -1) if N % 2 == 0 else (1,):
            for lam in admissible_partitions(N, eps):
                setup = WSetup(build_nilpotent(lam, eps))
                degrees = setup.x_degrees[:setup.r]
                assert degrees == sorted(degrees), (N, eps, lam)
                try:
                    setup.build_all_thetas()
                except ValueError:
                    assert len(setup.thetas) < setup.r
                else:
                    assert len(setup.thetas) == setup.r
                assert list(setup.thetas) == list(range(len(setup.thetas))), (N, eps, lam)
                setups += 1
    assert setups == 60


@pytest.mark.parametrize("name", [*SETUPS])
def test_theta_and_casimir_match_the_matrix_reference(name):
    setup = _setup(name)
    alg = setup.alg
    units = [{k: 1} for k in range(alg.dim)]
    for x in units + setup.basis_vectors[:setup.z_start]:
        _same_items(setup.theta_zero(x), _matrix_theta_zero(setup, _matrix(setup, x)))
    degree_one = [setup.basis_vectors[k] for k in range(setup.r) if setup.x_degrees[k] == 1]
    assert degree_one
    for x in degree_one:
        _same_items(setup.theta_one(x), _matrix_theta_one(setup, _matrix(setup, x)))
    assert casimir_element(setup) == _matrix_casimir(setup)


def _matrix_reference_tail(setup, x) -> list:
    alg = setup.alg
    c = alg.killing_form()["trace_constant"]
    zp = [_matrix(setup, v) for v in setup.pair.z_minus]
    zs = [_matrix(setup, v) for v in setup.pair.z_plus]
    out = []
    for i in range(setup.s):
        acc = Fraction(0)
        for j in range(setup.s):
            t1 = commutator(zp[j], commutator(x, commutator(zs[j], zp[i])))
            t2 = commutator(zs[j], commutator(x, commutator(zp[j], zp[i])))
            acc += c * (_trace(setup.rep.e @ t1) - _trace(setup.rep.e @ t2))
        out.append(acc)
    return out


def _q_project_reference(setup, elem: dict) -> dict:
    """The class in Q of elem, an element of U(g) with m-letters at the right
    of each word, as the substitution of chi for every m-letter: each word
    starts from Fraction(1).  It shares no code with the Q action."""
    out = {}
    for word, c in elem.items():
        head, factor = [], Fraction(1)
        for k in word:
            if k >= setup.m_start:
                factor *= setup.chi[k]
                if factor == 0:
                    break
            else:
                head.append(k)
        else:
            out[tuple(head)] = out.get(tuple(head), 0) + c * factor
    return {t: v for t, v in out.items() if v != 0}


def _to_q(setup, elem: dict) -> dict:
    """The class in Q of an element of U(g): the Q action on 1, the one route
    to Q that WSetup and casimir take."""
    return setup.U.q_mul(elem, {(): 1})


@pytest.mark.parametrize("name", [*SETUPS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_project_matches_the_reference(name, data):
    # the Q action on 1 is the reference's chi substitution after
    # straightening in U(g); on normal-ordered words it keeps their order
    setup, ref = _setup(name), _reference(_setup(name))
    elem = data.draw(_elements(setup.dim, 4))
    normal = data.draw(st.booleans())
    if normal:
        elem = ref.mul(elem, data.draw(_elements(setup.dim, 2)))
    got = _to_q(setup, elem)
    want = _q_project_reference(setup, ref.mul(elem, {(): Fraction(1)}))
    if normal:
        _same_items(got, want)
    assert got == want
    assert all(_is_canonical(c) for c in got.values())


def test_multiply_by_one(sp4):
    x, U = sp4.gen(0), _no_m(sp4)
    assert U.q_mul(x, {(): Fraction(1)}) == x
    assert U.q_mul({(): Fraction(1)}, x) == x


def test_commutator_agrees_with_bracket(sp4):
    alg, U = sp4.alg, _no_m(sp4)
    for a, va in enumerate(sp4.basis_vectors):
        for b, vb in enumerate(sp4.basis_vectors):
            lhs = U.q_comm(sp4.gen(a), sp4.gen(b))
            br = alg.sparse_bracket(va, vb)
            assert lhs == sp4.embed(br), (a, b)
            assert lhs == _embed_matrix(sp4, commutator(_matrix(sp4, va), _matrix(sp4, vb)))


def test_associativity_on_seeded_triples(sp4):
    U = _no_m(sp4)
    state = 20240601
    for _ in range(50):
        words = []
        for _ in range(3):
            state = (state * 48271) % 2147483647
            a = state % sp4.dim
            state = (state * 48271) % 2147483647
            b = state % sp4.dim
            words.append({(a,): Fraction(1), (b,): Fraction(1 + state % 3)})
        x, y, z = words
        assert U.q_mul(U.q_mul(x, y), z) == U.q_mul(x, U.q_mul(y, z))


def test_q_project_m_generator(sp4):
    for a in range(sp4.m_start, sp4.dim):
        q = _to_q(sp4, sp4.gen(a))
        want = {(): sp4.chi[a]} if sp4.chi[a] != 0 else {}
        assert q == want


def test_q_project_e_is_a_centralizer_monomial(sp4):
    q = _to_q(sp4, sp4.embed(sp4.rep.e_coords))
    assert all(len(w) == 1 and w[0] < sp4.r for w in q)


def test_q_project_zprime_z_affine(sp4):
    # z' z = z z' + [z', z]; the class is Psi(z', z) = 1 by the duality
    zp = sp4.gen(sp4.m_start)
    z = sp4.gen(sp4.z_start)
    assert _to_q(sp4, _reference(sp4).mul(zp, z)) == {(): 1}


def test_q_project_idempotent_on_normal_forms(sp4):
    q = _to_q(sp4, _reference(sp4).mul(sp4.gen(0), sp4.gen(sp4.z_start)))
    assert _to_q(sp4, dict(q)) == q


def test_kazhdan_degrees(sp4):
    x0 = [k for k in range(sp4.r) if sp4.x_degrees[k] == 0][0]
    assert sp4.kazhdan_degree(sp4.gen(x0)) == 2
    assert sp4.kazhdan_degree(sp4.gen(sp4.z_start)) == 1
    x1 = [k for k in range(sp4.r) if sp4.x_degrees[k] == 1][0]
    th = sp4.build_theta(x1)
    assert sp4.kazhdan_degree(th.value) == 3


def test_kazhdan_filtration_submultiplicative(sp4):
    elems = [_q_project_reference(sp4, sp4.gen(k)) for k in range(sp4.z_start)]
    for a in elems[:4]:
        for b in elems[:4]:
            prod = _q_project_reference(sp4, _reference(sp4).mul(dict(a), dict(b)))
            if prod:
                assert sp4.kazhdan_degree(prod) <= sp4.kazhdan_degree(a) + sp4.kazhdan_degree(b)


def test_theta_zero_trivial_action(sp4):
    # a degree-0 centraliser vector acting trivially on g(-1)_0 is its own theta
    trivial = 0
    for k in range(sp4.r):
        if sp4.x_degrees[k] != 0:
            continue
        x = sp4.basis_vectors[k]
        if all(not sp4.alg.sparse_bracket(x, v) for v in sp4.pair.z_minus):
            assert sp4.theta_zero(x) == sp4.embed(x)
            trivial += 1
    assert trivial > 0


def test_theta_of_zero_is_zero(sp4):
    assert sp4.theta_zero({}) == {}


def test_theta_zero_two_term_shape(sp4):
    # the nontrivial degree-0 generator: leading letter plus one quadratic
    # z-correction, all of it ad-m-invariant
    shapes = []
    for k in range(sp4.r):
        if sp4.x_degrees[k] != 0:
            continue
        th = sp4.build_theta(k)
        shapes.append(sorted(len(w) for w in th.value))
        assert sp4.ad_m_invariant(th.value) is None
    assert [1, 2] in shapes  # x + (z-quadratic) for some generator


def test_theta_invariance_sweep(sp4, sp6):
    for setup in (sp4, sp6):
        setup.build_all_thetas()
        for th in setup.thetas.values():
            assert setup.ad_m_invariant(th.value) is None
            assert setup.is_r_integral(th.value)


def test_theta_shape_constraints(sp6):
    for th in sp6.thetas.values():
        top = th.degree + 2
        for word, c in th.value.items():
            kdeg = sum(sp6.kaz[i] for i in word)
            assert kdeg <= top
            if word == (th.index,):
                assert c == 1
            elif th.degree >= 2:
                assert not all(i < sp6.r for i in word)


def test_theta_one_reference_tail_differs(sp6):
    # the commonly quoted closed form of the linear tail is inconsistent
    # with invariance at rank s = 2; record the discrepancy, don't use it
    mismatch = 0
    for k in range(sp6.r):
        if sp6.x_degrees[k] != 1:
            continue
        x = sp6.basis_vectors[k]
        canonical = sp6.theta_one(x)
        reference_tail = [c * Fraction(-1, 3) for c in _matrix_reference_tail(sp6, _matrix(sp6, x))]
        tails = {
            i: canonical.get((sp6.z_start + i,), Fraction(0)) for i in range(sp6.s)
        }
        if any(tails[i] != reference_tail[i] for i in range(sp6.s)):
            mismatch += 1
    assert mismatch > 0


def test_jems_commutator_law(sp4, sp6):
    for setup in (sp4, sp6):
        for i in range(setup.r):
            if setup.x_degrees[i] != 0:
                continue
            for j in range(setup.r):
                if setup.x_degrees[j] not in (0, 1):
                    continue
                assert jems_commutator_check(
                    setup,
                    setup.centralizer_matrix(i),
                    setup.centralizer_matrix(j),
                    setup.x_degrees[j],
                ), (i, j)


def test_lift_idempotent(sp4):
    k = [k for k in range(sp4.r) if sp4.x_degrees[k] == 2][0]
    th = sp4.build_theta(k)
    ints, den = _ints(th.value)
    cleared, expansion = sp4._clear(ints, k, den)
    assert cleared == th.value and expansion == {}


def test_lift_order_independence(sp6):
    # an alternative commutator presentation yields the identical generator
    checked = 0
    for k in range(sp6.r):
        if sp6.x_degrees[k] < 2:
            continue
        try:
            value, _ = sp6.lift(k, perturb=1)
        except ValueError:
            continue
        assert value == sp6.thetas[k].value
        checked += 1
    assert checked > 0


def test_lift_refuses_an_expansion_that_misses_a_term(monkeypatch):
    # the expansion is certified to add back up to the commutator sum, so a
    # clearing that forgets one term raises instead of zeroing a character
    setup = WSetup(build_nilpotent(Partition((2, 1, 1)), -1))
    k = [k for k in range(setup.r) if setup.x_degrees[k] == 2][0]
    value, expansion = setup.lift(k)
    assert expansion
    clear = setup._clear

    def forgetful(h, k, den):
        value, expansion = clear(h, k, den)
        dropped = min(expansion)
        return value, {w: c for w, c in expansion.items() if w != dropped}

    monkeypatch.setattr(setup, "_clear", forgetful)
    with pytest.raises(AssertionError, match="does not add back up"):
        setup.lift(k)


LIFT_CASES = [((2, 1, 1), -1), ((2, 1, 1, 1, 1), -1), ((2, 2, 1), 1),
              ((2, 2, 1, 1, 1), 1), ((2, 2, 2, 1, 1), -1), ((3, 2, 2, 1), 1)]


@pytest.mark.parametrize("parts,eps", LIFT_CASES)
def test_the_stored_expansion_is_the_whole_expansion_of_the_commutator_sum(parts, eps):
    # theta_k has no pure centraliser monomial but (k,), so expanding the
    # commutator sum that lifted it in the theta basis gives the stored
    # expansion plus theta_k itself; so_8 (3,2,2,1) lifts its degree-3
    # generators through the degree-2 ones
    setup = WSetup(build_nilpotent(Partition(parts), eps))
    setup.build_all_thetas()
    ref = FractionUAlgebra(setup.dim, setup.U.bracket)
    high = [k for k in range(setup.r) if setup.x_degrees[k] >= 2]
    assert high
    for k in high:
        h = {}
        for (p, q), c in setup.commutator_presentation(k):
            br = ref.comm(dict(setup.thetas[p].value), dict(setup.thetas[q].value))
            h = elem_add(h, _q_project_reference(setup, br), c)
        assert setup.expand_in_theta(*_ints(h)) == {**setup.thetas[k].expansion, (k,): 1}
    assert all(setup.thetas[k].expansion == {} for k in range(setup.r) if k not in high)
    if parts == (3, 2, 2, 1):
        assert {setup.x_degrees[k] for k in high} == {2, 3}


def test_pbw_bound_zero(sp4):
    out = pbw_basis_check(sp4, 0)
    assert out["count"] == 1 and out["independent"]


def test_pbw_bound_four_matches_generating_function(sp4):
    out = pbw_basis_check(sp4, 4)
    # coefficient count of prod 1/(1 - t^{n_k + 2}) truncated at degree 4:
    # weights (2,2,2,3,3,4) admit 13 monomials of weight <= 4
    assert out == {"bound": 4, "count": 13, "rank": 13, "independent": True, "r_integral": True}


def test_augmentation_character(sp4, sp6):
    for setup, want_nonzero in ((sp4, Fraction(-1, 2)), (sp6, Fraction(-3, 2))):
        char = augmentation_character(setup)
        for k, v in char.items():
            if setup.x_degrees[k] <= 1:
                assert v == 0
        high = [v for k, v in char.items() if setup.x_degrees[k] == 2]
        assert high == [want_nonzero]
        assert character_kills_commutators(setup, char)


@pytest.mark.parametrize(
    "parts,eps,expect_char",
    [
        ((2, 2, 1, 1, 1), 1, {Fraction(-3, 2)}),
        ((2, 2, 2, 1, 1), -1, {Fraction(-1, 2)}),
        ((3, 2, 2, 1), 1, {Fraction(-1, 2), Fraction(-35, 16)}),
    ],
)
def test_bigger_rigid_w_algebras(parts, eps, expect_char):
    # so_8 (3,2,2,1) exercises recursive lifting: its degree-3 generators
    # need the lifted degree-2 ones in their commutator presentations
    setup = WSetup(build_nilpotent(Partition(parts), eps))
    setup.build_all_thetas()
    for th in setup.thetas.values():
        assert setup.ad_m_invariant(th.value) is None
        assert setup.is_r_integral(th.value)
    char = augmentation_character(setup)
    assert {v for v in char.values() if v != 0} == expect_char
    assert character_kills_commutators(setup, char)


def test_the_so2_casimir_is_the_square_of_its_cartan_element():
    # so_2 has no simple root: C = h^2 / kappa(h, h), and kappa(h, h) = 1
    setup = WSetup(build_nilpotent(Partition((1, 1)), 1))
    assert setup.alg.killing_form()["gram"].rows() == [{0: 1}]
    assert casimir_element(setup) == {(0, 0): 1}
    assert casimir(setup).shape == {"two_e_plus_rest": True, "mixed_terms": 0, "zero_part_terms": 1,
                                    "shape_ok": True}


def test_casimir_sp4_so5():
    for parts, eps in [((2, 1, 1), -1), ((2, 2, 1), 1)]:
        setup = WSetup(build_nilpotent(Partition(parts), eps))
        cas = casimir(setup)  # centrality on every basis element checked inside
        assert cas.shape["shape_ok"]
        assert cas.shape["mixed_terms"] >= 1
        # 2e is really present: removing it from the Q-image leaves no
        # centraliser-supported linear term of degree 2
        e_word = sp_e_word = None
        rest = elem_add(
            setup.U.q_mul(casimir_element(setup), {(): 1}),
            setup.embed(setup.rep.e_coords),
            Fraction(-2),
        )
        for word in rest:
            if len(word) == 1 and word[0] < setup.z_start:
                assert setup.x_degrees[word[0]] == 0
