"""W-algebra products are computed in Q = U(g) (x)_{U(m)} k_chi by the left
action of U(g) on Q normal form words (UAlgebra.act, q_word, q_mul, q_comm).
The action agrees with straightening in U(g) followed by the substitution of
chi, its memo runs on ints, the ad-m-invariance certificate still sees a
wrong chi through it, and products in U(g) are taken only for the Casimir
element."""

import ast
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from orbitforge.enveloping import UAlgebra, WSetup
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition
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
    U = setup.U
    assert U.q_mul(x, y) == setup.q_project(U.mul(x, y)), (x, y)
    assert U.q_comm(x, y) == setup.q_project(U.comm(x, y)), (x, y)


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
    chi = [c / 3 for c in setup.chi]
    U = UAlgebra(setup.dim, setup.U.bracket, setup.m_start, chi)
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
                assert U.q_mul(x, y) == project(U.mul(x, y))
                assert U.q_comm(x, y) == project(U.comm(x, y))
    _assert_int_memo(U)


def _corruptions(name):
    setup = _setup(name)
    return [(name, k, 2 * setup.chi[k] if setup.chi[k] else Fraction(1))
            for k in range(setup.m_start, setup.dim)]


@pytest.mark.parametrize("name,letter,wrong", [c for name in CASES for c in _corruptions(name)])
def test_a_wrong_chi_inside_the_q_action_fails_ad_m_invariance(name, letter, wrong):
    # a degree -2 letter's chi doubled, or a chi = 0 letter's set to 1, in
    # the action alone: building the generators must raise at the
    # ad-m-invariance certificate
    setup = _fresh(name)
    U = setup.U
    assert Fraction(U._ichi[letter], U.denominator) == setup.chi[letter] != wrong
    assert (setup.chi[letter] != 0) == (setup.m_degrees[letter - setup.m_start] == -2)
    U._ichi[letter] = wrong * U.denominator
    with pytest.raises(AssertionError, match="is not ad-m-invariant"):
        setup.build_all_thetas()


# -- products in U(g) stay with the Casimir element --------------------------------

PRODUCTS = ("mul", "comm", "q_mul", "q_comm", "q_word", "act", "straighten")


def _products_in_U(source: str) -> list:
    """Scopes of the U.mul and U.comm calls outside UAlgebra itself."""
    return sorted(scope for name in ("mul", "comm") for scope in _callers(source, name, receiver="U")
                  if not scope.startswith("UAlgebra"))


def _projected_products(source: str) -> list:
    """Line numbers of q_project calls that take a product's result."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _last_name(node.func) == "q_project"
            and any(isinstance(arg, ast.Call) and _last_name(arg.func) in PRODUCTS for arg in node.args)]


def test_products_in_U_g_are_taken_only_for_the_casimir():
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope in _products_in_U(path.read_text())]
    assert calls and {scope for _, scope in calls} == {"casimir"}
    assert {name for name, _ in calls} == {"enveloping.py"}


def test_q_project_never_takes_a_product():
    for path in sorted(SRC.glob("*.py")):
        assert _projected_products(path.read_text()) == [], path.name
    assert _callers((SRC / "enveloping.py").read_text(), "q_project") == ["WSetup._head", "casimir"]


def test_the_guards_see_a_product_outside_the_casimir():
    src = '''
class UAlgebra:
    def comm(self, x, y):
        return self.mul(x, y)


class WSetup:
    def ad_m_invariant(self, qnf):
        return self.q_project(self.U.comm(self.gen(0), qnf))


def casimir(setup):
    return setup.U.mul({}, {})


def lift(setup, U):
    h = U.mul({}, {})
    return setup.q_project(setup.U.q_comm(h, h)), setup.ring.mul(1, 2)
'''
    assert _products_in_U(src) == ["WSetup.ad_m_invariant", "casimir", "lift"]
    assert _projected_products(src) == [9, 18]
