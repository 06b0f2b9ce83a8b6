"""W-algebra products are computed in Q = U(g) (x)_{U(m)} k_chi by the left
action of U(g) on Q normal form words (UAlgebra.act, q_mul, q_comm).
The action agrees with the Fraction straightening reference in U(g) followed
by the substitution of chi, its memo holds flat tuples of interned words
and ints, the class in Q of an element of U(g) is taken only as its action
on 1, and the ad-m-invariance certificate still sees a wrong chi through
it.  UAlgebra is the one PBW
kernel: it has no straightening of its own, no other class defines a
letter action, and it is built only for a WSetup, for the Casimir element
(with no m-letters) and for the induced modules (restricted mod p).  q_mul
and q_comm, which map the right factor to Q once and let each left word act
on the whole sum, give the values and key order of mapping each pair of
words to Q by itself; a commutator with an m-letter, whose image of 1 is a
constant, gives what the letter-by-letter action gives.  WSetup's theta
product table gives every theta monomial, and both products of every pair
of generators, as q_mul and q_comm give them, and keeps the image of a
shared word suffix on a target once; a dropped WSetup frees its UAlgebra
and its table without the cycle collector."""

import ast
import gc
import random
import sys
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from orbitforge import cli, enveloping, runner
from orbitforge.enveloping import (UAlgebra, WSetup, _difference, _ONE, _scaled, augmentation_character,
                                   character_kills_commutators, pbw_basis_check)
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition
from test_enveloping import _q_project_reference, _reference
from test_one_lift import _callers, _last_name
from test_theta_once import _ints

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
CASES = {"sp4": ((2, 1, 1), -1), "so5": ((2, 2, 1), 1), "so7": ((2, 2, 1, 1, 1), 1)}
ONE = {(): Fraction(1)}


def _fresh(name) -> WSetup:
    parts, eps = CASES[name]
    return WSetup(build_nilpotent(Partition(parts), eps))


@lru_cache(maxsize=None)
def _setup(name) -> WSetup:
    return _fresh(name)


def _assert_q_products(setup, x, y):
    U, ref = setup.U, _reference(setup)
    assert U.q_mul(x, y) == _q_project_reference(setup, ref.mul(x, y)), (x, y)
    assert U.q_comm(x, y) == _q_project_reference(setup, ref.comm(x, y)), (x, y)
    _assert_like_the_reference(U, x, y)


def _assert_int_memo(U):
    # one dict per letter, keyed by interned words; each value a flat
    # (word, coefficient, ...) tuple of interned words and nonzero ints,
    # residues in [1, p) on a restricted instance
    assert type(U._act_memo) is list and len(U._act_memo) == U.dim and any(U._act_memo)
    for memo in U._act_memo:
        for w, out in memo.items():
            assert U._words.get(w) is w
            assert type(out) is tuple and len(out) % 2 == 0, out
            assert all(type(t) is tuple and U._words.get(t) is t for t in out[::2]), out
            assert all(type(c) is int and c != 0 for c in out[1::2]), out
            if U.p is not None:
                assert all(0 < c < U.p for c in out[1::2]), out


@pytest.mark.parametrize("name", [*CASES])
def test_letter_pairs_and_triples(name):
    setup = _setup(name)
    letters = range(setup.dim)
    for a in letters:
        for b in letters:
            _assert_q_products(setup, setup.gen(a), setup.gen(b))
            for c in letters:
                _assert_q_products(setup, {(a, b): Fraction(1)}, setup.gen(c))
    _assert_int_memo(setup.U)


@pytest.mark.parametrize("name", [*CASES])
def test_words_with_m_letters_in_the_middle_and_at_the_end(name):
    setup = _setup(name)
    rng = random.Random(13)
    m_letters = range(setup.m_start, setup.dim)
    assert any(setup.chi[k] for k in m_letters) and not all(setup.chi[k] for k in m_letters)
    for _ in range(60):
        head = tuple(rng.randrange(setup.dim) for _ in range(rng.randint(1, 2)))
        tail = tuple(rng.randrange(setup.dim) for _ in range(rng.randint(0, 2)))
        for word in (head + (rng.choice(m_letters),) + tail, head + tail + (rng.choice(m_letters),)):
            x = {word: Fraction(rng.randint(1, 5), rng.choice([1, 2, 3]))}
            _assert_q_products(setup, x, ONE)
            _assert_q_products(setup, x, {(rng.randrange(setup.m_start),): Fraction(1)})
            for k in range(1, len(word)):   # split anywhere: the m-letter may lead the right factor
                _assert_q_products(setup, {word[:k]: Fraction(1)}, {word[k:]: Fraction(-1, 2)})
    _assert_int_memo(setup.U)


@pytest.mark.parametrize("name", [*CASES])
def test_every_pair_of_theta_values(name):
    setup = _setup(name)
    thetas = setup.build_all_thetas()
    assert any(th.degree >= 2 for th in thetas.values())
    for p in thetas.values():
        for q in thetas.values():
            _assert_q_products(setup, p.value, q.value)
    _assert_int_memo(setup.U)


def test_chi_denominators_enter_the_common_denominator():
    # chi/3 is again a character of m (it vanishes on [m, m]), so it defines
    # a module Q; D takes its denominator in and the memo stays integral
    setup = _setup("so5")
    chi = [Fraction(c, 3) for c in setup.chi]
    U = UAlgebra(setup.dim, setup.U.bracket, setup.m_start, chi)
    with pytest.raises(TypeError):   # the float chi / 3 is refused
        UAlgebra(setup.dim, setup.U.bracket, setup.m_start, [c / 3 for c in setup.chi])
    ref = _reference(setup)
    assert (setup.U.denominator, U.denominator) == (2, 6)

    def project(elem):
        out = {}
        for word, c in elem.items():
            head = tuple(k for k in word if k < setup.m_start)
            for k in word[len(head):]:
                c *= chi[k]
            out[head] = out.get(head, 0) + c
        return {t: c for t, c in out.items() if c}

    for a in range(setup.dim):
        for b in range(setup.dim):
            for c in range(setup.m_start, setup.dim):
                x, y = {(a, c): Fraction(1)}, {(b, c): Fraction(1)}
                assert U.q_mul(x, y) == project(ref.mul(x, y))
                assert U.q_comm(x, y) == project(ref.comm(x, y))
    _assert_int_memo(U)


def _q_word_reference(U, word) -> dict:
    """word.1 as one word's letters acting one by one: the longest suffix in
    Q normal form kept whole, terms that cancel kept at 0."""
    k = len(word)
    while k and word[k - 1] < U.m_start and (k == len(word) or word[k - 1] <= word[k]):
        k -= 1
    out = {word[k:]: 1}
    for a in reversed(word[:k]):
        acc = {}
        for t, c in out.items():
            flat = U.act(a, t)
            for s, d in zip(flat[::2], flat[1::2]):
                acc[s] = acc.get(s, 0) + c * d
        out = acc
    return out


def _per_pair(U, x, y) -> tuple:
    """sum over the pairs of words of x and y of (wa + wb).1, at
    D^(top - len(term)) over the common denominator, zero terms kept."""
    D = U.denominator
    top = max(map(len, x), default=0) + max(map(len, y), default=0)
    out = {}
    for wa, ca in x.items():
        for wb, cb in y.items():
            w = wa + wb
            for t, c in _q_word_reference(U, w).items():
                out[t] = out.get(t, 0) + ca * cb * D ** (top - len(w)) * c
    return out, top


def _reference_q_mul(U, x, y) -> dict:
    out, top = _per_pair(U, x, y)
    return {t: Fraction(n) / U.denominator ** (top - len(t)) for t, n in out.items() if n != 0}


def _reference_q_comm(U, x, y) -> dict:
    xy, top = _per_pair(U, x, y)
    out = {t: n for t, n in xy.items() if n != 0}
    for t, n in _per_pair(U, y, x)[0].items():
        if n != 0:
            out[t] = out.get(t, 0) - n
    return {t: Fraction(n) / U.denominator ** (top - len(t)) for t, n in out.items() if n != 0}


def _shared_suffix_element(rng, dim, suffixes, m_letters) -> dict:
    """Words that are a short random head on one of a few suffixes, some
    with an m-letter placed anywhere."""
    out = {}
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.randrange(dim) for _ in range(rng.randint(0, 2))) + rng.choice(suffixes)
        if rng.random() < 0.3:
            i = rng.randint(0, len(word))
            word = word[:i] + (rng.choice(m_letters),) + word[i:]
        out[word] = Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 2, 3]))
    return out


def _assert_like_the_reference(U, x, y):
    # the same values in the same key order: printed output depends on it
    assert list(U.q_mul(x, y).items()) == list(_reference_q_mul(U, x, y).items()), (x, y)
    assert list(U.q_comm(x, y).items()) == list(_reference_q_comm(U, x, y).items()), (x, y)


@pytest.mark.parametrize("name,seed", [(name, seed) for name in CASES for seed in (3, 4)])
def test_shared_suffixes_match_one_q_word_per_pair(name, seed):
    setup = _fresh(name)
    rng = random.Random(seed)
    dim, m_letters = setup.dim, range(setup.m_start, setup.dim)
    suffixes = [tuple(rng.randrange(dim) for _ in range(rng.randint(0, 2))) for _ in range(3)]
    for _ in range(25):
        x = _shared_suffix_element(rng, dim, suffixes, m_letters)
        y = _shared_suffix_element(rng, dim, suffixes, m_letters)
        _assert_like_the_reference(setup.U, x, y)
        _assert_like_the_reference(setup.U, x, ONE)
        _assert_like_the_reference(setup.U, {}, y)


def test_shared_suffixes_match_the_reference_under_chi_over_three():
    setup = _setup("so5")
    U = UAlgebra(setup.dim, setup.U.bracket, setup.m_start, [Fraction(c, 3) for c in setup.chi])
    assert U.denominator == 6
    rng = random.Random(5)
    suffixes = [(), (setup.m_start - 1,), tuple(rng.randrange(setup.dim) for _ in range(2))]
    for _ in range(40):
        x = _shared_suffix_element(rng, setup.dim, suffixes, range(setup.m_start, setup.dim))
        y = _shared_suffix_element(rng, setup.dim, suffixes, range(setup.m_start, setup.dim))
        _assert_like_the_reference(U, x, y)
    _assert_int_memo(U)


def test_a_normal_form_word_keeps_its_tuple():
    # y.1 holds y's own words, not equal copies: the results share keys
    # with the factors, which keeps peak memory down
    setup = _setup("so5")
    words = [(0,), (1, setup.z_start), (0, 0, setup.m_start - 1), ()]
    y = {tuple(list(w)): Fraction(k + 1) for k, w in enumerate(words)}
    assert all(a is b for a, b in zip(setup.U.q_mul(ONE, y), y))
    assert setup.U.q_mul(ONE, y) == y


@pytest.mark.parametrize("name", ["sp4", "so5"])
def test_memo_values_are_flat_tuples_of_interned_words(name):
    setup = _fresh(name)
    thetas = setup.build_all_thetas()
    setup.U.q_comm(thetas[0].value, thetas[setup.r - 1].value)
    _assert_int_memo(setup.U)
    # the prepend fast path and the one-letter case give interned words too
    U = setup.U
    for a in range(setup.m_start):
        for word in ((), (a,), (a, a)):
            out = U.act(a, word)
            assert out[0] is U._words[tuple(sorted((a,) + word))]


def test_a_restricted_memo_holds_residues_of_interned_words(monkeypatch):
    from orbitforge import modular
    from orbitforge.orbits import InductionDatum

    made = []

    class Recorded(UAlgebra):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(modular, "UAlgebra", Recorded)
    modular.build_induced_module(InductionDatum.zero_orbit(5, 1, (1, 1)), 3)
    (U,) = made
    assert U.p == 3
    _assert_int_memo(U)


def test_a_dropped_setup_frees_its_algebra_without_the_collector(monkeypatch):
    # no reference cycle through the memos or the product table: with the
    # cycle collector off, the UAlgebra, its memos and the table go with the
    # last reference, after the table's readers have filled it
    monkeypatch.setattr(runner, "WORKERS", 0)
    gc.disable()
    try:
        setup = _fresh("so5")
        thetas = setup.build_all_thetas()
        setup.U.q_comm(thetas[0].value, thetas[setup.r - 1].value)
        assert pbw_basis_check(setup, 4)["independent"]
        assert character_kills_commutators(setup, augmentation_character(setup))
        assert any(setup.U._act_memo) and setup._vector_memo and setup._mono_cache
        assert any(len(images) > 1 for _, _, images in setup._targets.values())
        refs = [weakref.ref(setup), weakref.ref(setup.U)]
        del setup, thetas
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- a commutator with a constant image of 1 ---------------------------------------


def _letter_by_letter_comm(U, x, y):
    """q_comm(x, y) with every word of each factor acting on the other's
    image of 1 letter by letter, as before the constant shortcut."""
    dx, xs = _scaled(x)
    dy, ys = _scaled(y)
    lx, ly = max(map(len, x)), max(map(len, y))
    x1, y1 = U._act_on(xs, _ONE, lx), U._act_on(ys, _ONE, ly)
    return U._quotients(_difference(U._act_on(xs, y1, lx), U._act_on(ys, x1, ly)), dx * dy, lx + ly)


@pytest.mark.parametrize("name", [*CASES])
def test_an_m_letter_commutator_matches_the_letter_by_letter_action(name):
    # every m-letter has a constant image of 1, chi of it, and a letter with
    # chi = 0 an empty one; against every generator, in both orders
    setup = _fresh(name)
    U, thetas = setup.U, setup.build_all_thetas()
    m_letters = range(setup.m_start, setup.dim)
    assert any(setup.chi[a] == 0 for a in m_letters) and any(setup.chi[a] != 0 for a in m_letters)
    for a in m_letters:
        x = setup.gen(a)
        assert U._act_on(_scaled(x)[1], _ONE, 1) == ({(): U._ichi[a]} if setup.chi[a] else {})
        for th in thetas.values():
            for pair in ((x, th.value), (th.value, x)):
                got, want = U.q_comm(*pair), _letter_by_letter_comm(U, *pair)
                assert list(got.items()) == list(want.items()), (a, th.index)


# -- the theta product table ---------------------------------------------------------

TABLE_CASES = cli.W_SUITE_CASES + (((2, 2, 1, 1, 1), 1), ((3, 2, 2, 1), 1))


@lru_cache(maxsize=None)
def _built(parts, eps) -> WSetup:
    setup = WSetup(build_nilpotent(Partition(parts), eps))
    setup.build_all_thetas()
    return setup


def _q_mul_monomial(setup, word) -> dict:
    """theta^word . 1 by U.q_mul on the thetas' values, right to left."""
    out = {(): 1}
    for k in reversed(word):
        out = setup.U.q_mul(setup.thetas[k].value, out)
    return out


@pytest.mark.parametrize("parts,eps", TABLE_CASES, ids=str)
def test_every_theta_monomial_up_to_degree_four_is_the_q_mul_product(parts, eps):
    # a generator has Kazhdan degree >= 2, so these words have <= 2 letters
    setup = _built(parts, eps)
    words = [w for n in range(3) for w in combinations_with_replacement(range(setup.r), n)
             if sum(setup.kaz[i] for i in w) <= 4]
    assert len(words) > setup.r + 1
    for word in words:
        assert list(setup._theta_monomial(word).items()) == list(_q_mul_monomial(setup, word).items()), word


@pytest.mark.parametrize("parts,eps", TABLE_CASES, ids=str)
def test_both_products_of_every_pair_are_q_mul_and_q_comm(parts, eps):
    setup = _built(parts, eps)
    U, thetas = setup.U, setup.thetas
    # the augmentation character gives 0 on every pair; these values do not
    c = {k: k + 1 for k in range(setup.r)}
    nonzero = 0
    for i in range(setup.r):
        for j in range(setup.r):
            if i == j:
                continue
            x, y = thetas[i].value, thetas[j].value
            assert list(U._quotients(*setup._theta_product(i, (j,))).items()) == list(U.q_mul(x, y).items())
            assert list(U._quotients(*setup._theta_commutator(i, j)).items()) == list(U.q_comm(x, y).items())
            # the check's value over one denominator is the value of q_comm
            want = enveloping._character_value(c, setup.expand_in_theta(*_ints(U.q_comm(x, y))))
            assert enveloping._pair_value(setup, c, i, j) == want
            nonzero += want != 0
    assert nonzero


def test_the_character_check_computes_no_kept_table_entry_twice(monkeypatch):
    # so_8 (3,2,2,1), in one process: every image the table keeps is
    # computed once, and none that building, the PBW check or the character
    # left in the table is computed again by the check
    monkeypatch.setattr(runner, "WORKERS", 0)
    setup = WSetup(build_nilpotent(Partition((3, 2, 2, 1)), 1))
    setup.build_all_thetas()
    assert pbw_basis_check(setup, 4)["independent"]
    c = augmentation_character(setup)
    before = {(t, s) for t, (_, _, images) in setup._targets.items() for s in images}
    computed = {}
    real = UAlgebra._act_letter

    def spy(self, a, v):
        # the entry that _theta_product's letter w[i] makes: w[i:] on t
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_theta_product":
            f = frame.f_locals
            key = (f["t"], f["w"][f["i"]:])
            computed[key] = computed.get(key, 0) + 1
        return real(self, a, v)

    monkeypatch.setattr(UAlgebra, "_act_letter", spy)
    assert character_kills_commutators(setup, c)
    kept = {(t, s) for t, (_, _, images) in setup._targets.items() for s in images}
    made = {key: n for key, n in computed.items() if key in kept}
    assert len(made) > 100 and before < kept
    assert not made.keys() & before
    assert set(made.values()) == {1}


def _corruptions(name):
    setup = _setup(name)
    return [(name, k, Fraction(2 * setup.chi[k]) if setup.chi[k] else Fraction(1))
            for k in range(setup.m_start, setup.dim)]


@pytest.mark.parametrize("name,letter,wrong", [c for name in CASES for c in _corruptions(name)])
def test_a_wrong_chi_inside_the_q_action_fails_ad_m_invariance(name, letter, wrong):
    # a degree -2 letter's chi doubled, or a chi = 0 letter's set to 1, in
    # the action alone: building the generators must raise at the
    # ad-m-invariance certificate
    setup = _fresh(name)
    U = setup.U
    assert Fraction(U._ichi[letter], U.denominator) == setup.chi[letter] != wrong
    assert (setup.chi[letter] != 0) == (setup.msub.degrees[letter - setup.m_start] == -2)
    U._ichi[letter] = wrong * U.denominator
    with pytest.raises(AssertionError, match="is not ad-m-invariant"):
        setup.build_all_thetas()


# -- one PBW kernel ------------------------------------------------------------------

SECOND_KERNEL = ("straighten", "mul", "comm")
LETTER_ACTION = ("act", "_act")


def _methods(source: str, cls: str) -> list:
    """The names of the functions defined in the body of class cls."""
    return [node.name for top in ast.parse(source).body if isinstance(top, ast.ClassDef) and top.name == cls
            for node in top.body if isinstance(node, ast.FunctionDef)]


def _letter_actions(source: str) -> list:
    """The classes other than UAlgebra that define a letter action."""
    return [top.name for top in ast.parse(source).body if isinstance(top, ast.ClassDef) and top.name != "UAlgebra"
            and set(_methods(source, top.name)) & set(LETTER_ACTION)]


def test_one_pbw_kernel_built_for_the_w_setup_the_casimir_and_the_induced_modules():
    # every product in U(g) or Q, and every action on an induced module,
    # goes through UAlgebra's left action: no straightening beside it, no
    # other class with a letter action, and no instance but these three
    source = (SRC / "enveloping.py").read_text()
    assert not any(hasattr(UAlgebra, name) for name in SECOND_KERNEL)
    assert not set(_methods(source, "UAlgebra")) & set(SECOND_KERNEL)
    for path in sorted(SRC.glob("*.py")):
        assert _letter_actions(path.read_text()) == [], path.name
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope in _callers(path.read_text(), "UAlgebra")]
    assert calls == [("enveloping.py", "WSetup._build_structure"), ("enveloping.py", "casimir_element"),
                     ("modular.py", "build_induced_module")]


def _chi_substitutions(source: str) -> list:
    """The functions that define a q_project: a chi substitution beside the
    Q action."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "q_project"]


def test_the_class_in_q_has_one_route():
    # WSetup and casimir take the class in Q of an element of U(g) as its
    # action on 1: no second chi substitution, in src or on WSetup
    assert not hasattr(WSetup, "q_project")
    for path in sorted(SRC.glob("*.py")):
        assert _chi_substitutions(path.read_text()) == [], path.name
        assert _callers(path.read_text(), "q_project") == [], path.name


def test_the_guards_see_a_second_kernel():
    src = '''
class UAlgebra:
    def straighten(self, word):
        return {word: 1}

    def mul(self, x, y):
        return self.q_mul(x, y)


class WSetup:
    def _build_structure(self):
        self.U = UAlgebra(self.dim, {})

    def q_project(self, elem):
        return {tuple(k for k in w if k < self.m_start): c for w, c in elem.items()}

    def ad_m_invariant(self, qnf):
        return self.q_project(self.U.q_comm(self.gen(0), qnf))


def casimir(setup):
    return UAlgebra(setup.dim, setup.U.bracket).q_mul({}, {})


def lift(setup, U):
    h = orbitforge.enveloping.UAlgebra(setup.dim, {}).q_mul({}, {})
    return setup.q_project(h)


def tails(setup, U, xs):
    return setup.q_project(U._act_on(xs, {(): 1}, 1)), setup.q_project(U._act_letter(0, {(): 1}))


class _Builder:
    def _act(self, k, mono):
        return {mono: 1}
'''
    assert _methods(src, "UAlgebra") == ["straighten", "mul"]
    assert _letter_actions(src) == ["_Builder"]
    assert _callers(src, "UAlgebra") == ["WSetup._build_structure", "casimir", "lift"]
    assert _chi_substitutions(src) == ["q_project"]
    assert _callers(src, "q_project") == ["WSetup.ad_m_invariant", "lift", "tails", "tails"]
