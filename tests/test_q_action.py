"""W-algebra products are computed in Q = U(g) (x)_{U(m)} k_chi by the left
action of U(g) on Q normal form words (UAlgebra.act, q_mul, q_comm).
The action agrees with the Fraction straightening reference in U(g) followed
by the substitution of chi, its memo runs on ints, and the ad-m-invariance
certificate still sees a wrong chi through it.  UAlgebra is the one PBW
kernel: it has no straightening of its own, and it is built only for a
WSetup and, with no m-letters, for the Casimir element.  q_mul and q_comm,
which map the right factor to Q once and let each left word act on the
whole sum, give the values and key order of mapping each pair of words to Q
by itself, and a dropped WSetup frees its UAlgebra without the cycle
collector."""

import ast
import gc
import random
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from orbitforge.enveloping import UAlgebra, WSetup
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition
from test_enveloping import _reference
from test_one_lift import _callers, _last_name

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
    assert U.q_mul(x, y) == setup.q_project(ref.mul(x, y)), (x, y)
    assert U.q_comm(x, y) == setup.q_project(ref.comm(x, y)), (x, y)
    _assert_like_the_reference(U, x, y)


def _assert_int_memo(U):
    assert U._act_memo
    assert all(type(c) is int for out in U._act_memo.values() for c in out.values())


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
            for s, d in U.act(a, t).items():
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


def test_a_dropped_setup_frees_its_algebra_without_the_collector():
    # no reference cycle through the memos: with the cycle collector off,
    # the UAlgebra and its memos go with the last reference
    gc.disable()
    try:
        setup = _fresh("so5")
        thetas = setup.build_all_thetas()
        setup.U.q_comm(thetas[0].value, thetas[setup.r - 1].value)
        assert setup.U._act_memo and setup._vector_memo
        ref = weakref.ref(setup.U)
        del setup, thetas
        assert ref() is None
    finally:
        gc.enable()


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

PRODUCTS = ("q_mul", "q_comm", "act", "_act_on", "_act_letter")
SECOND_KERNEL = ("straighten", "mul", "comm")


def _methods(source: str, cls: str) -> list:
    """The names of the functions defined in the body of class cls."""
    return [node.name for top in ast.parse(source).body if isinstance(top, ast.ClassDef) and top.name == cls
            for node in top.body if isinstance(node, ast.FunctionDef)]


def _projected_products(source: str) -> list:
    """Line numbers of q_project calls that take a product's result."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _last_name(node.func) == "q_project"
            and any(isinstance(arg, ast.Call) and _last_name(arg.func) in PRODUCTS for arg in node.args)]


def test_one_pbw_kernel_built_for_the_w_setup_and_the_casimir():
    # every product in U(g) or Q goes through UAlgebra's left action: no
    # straightening beside it, and no instance but these two
    source = (SRC / "enveloping.py").read_text()
    assert not any(hasattr(UAlgebra, name) for name in SECOND_KERNEL)
    assert not set(_methods(source, "UAlgebra")) & set(SECOND_KERNEL)
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope in _callers(path.read_text(), "UAlgebra")]
    assert calls == [("enveloping.py", "WSetup._build_structure"), ("enveloping.py", "casimir")]


def test_q_project_never_takes_a_product():
    for path in sorted(SRC.glob("*.py")):
        assert _projected_products(path.read_text()) == [], path.name
    assert _callers((SRC / "enveloping.py").read_text(), "q_project") == ["WSetup._head", "casimir"]


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

    def ad_m_invariant(self, qnf):
        return self.q_project(self.U.q_comm(self.gen(0), qnf))


def casimir(setup):
    return UAlgebra(setup.dim, setup.U.bracket).q_mul({}, {})


def lift(setup, U):
    h = orbitforge.enveloping.UAlgebra(setup.dim, {}).q_mul({}, {})
    return setup.q_project(h)


def tails(setup, U, xs):
    return setup.q_project(U._act_on(xs, {(): 1}, 1)), setup.q_project(U._act_letter(0, {(): 1}))
'''
    assert _methods(src, "UAlgebra") == ["straighten", "mul"]
    assert _callers(src, "UAlgebra") == ["WSetup._build_structure", "casimir", "lift"]
    assert _projected_products(src) == [15, 28, 28]
