"""Each theta value is computed once: theta_zero and theta_one are memoised
per {index: scalar} map, on its sorted items, shared dicts are never mutated, every commutator law
comparison still runs, and WSetup._clear, which subtracts in place, gives
the result of the clearing loop that rebuilt h with elem_add at every
step."""

import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from orbitforge import cli, enveloping
from orbitforge.enveloping import UAlgebra, WSetup, _scaled, elem_add
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition

SO8 = ((3, 2, 2, 1), 1)


def _fresh(parts, eps) -> WSetup:
    return WSetup(build_nilpotent(Partition(parts), eps))


@lru_cache(maxsize=None)
def _so8() -> WSetup:
    setup = _fresh(*SO8)
    setup.build_all_thetas()
    return setup


# -- clearing ------------------------------------------------------------------------


def _ints(h: dict):
    """(n, den) with h[t] = n[t] / den: a QQ sum as _clear and
    expand_in_theta take it."""
    den, terms = _scaled(h)
    return dict(terms), den


def _min_scan_clear(setup, h, k):
    """The clearing loop as a minimum scan over h at every step, with h
    rebuilt by elem_add: (result, expansion, steps)."""
    exclude = (k,) if k is not None else None
    expansion, steps = {}, 0
    while True:
        pure = [(w, c) for w, c in h.items() if w != exclude and all(i < setup.r for i in w)]
        if not pure:
            return h, expansion, steps
        word, coeff = min(pure, key=lambda wc: (-sum(setup.kaz[i] for i in wc[0]), len(wc[0]), wc[0]))
        expansion[word] = expansion.get(word, Fraction(0)) + coeff
        h = elem_add(h, setup._theta_monomial(word), -coeff)
        steps += 1


def _clearing_inputs(setup):
    """(h, k): every commutator [theta_i, theta_j], i < j, and every
    commutator sum that lifted a generator."""
    for i in range(setup.r):
        for j in range(i + 1, setup.r):
            yield setup.U.q_comm(setup.thetas[i].value, setup.thetas[j].value), None
    for k in range(setup.r):
        if setup.x_degrees[k] >= 2:
            h = {}
            for (p, q), c in setup.commutator_presentation(k):
                h = elem_add(h, setup.U.q_comm(setup.thetas[p].value, setup.thetas[q].value), c)
            yield h, k


def test_in_place_clearing_matches_the_rebuilding_loop_on_every_so8_commutator():
    setup = _so8()
    inputs = list(_clearing_inputs(setup))
    assert len(inputs) == setup.r * (setup.r - 1) // 2 + sum(d >= 2 for d in setup.x_degrees[:setup.r])
    cleared = 0
    for h, k in inputs:
        ints, den = _ints(h)
        before = list(ints.items())
        rem, expansion = setup._clear(ints, k, den)
        want_rem, want_expansion, steps = _min_scan_clear(setup, h, k)
        assert list(ints.items()) == before   # the caller's dict is left alone
        assert list(rem.items()) == list(want_rem.items())
        assert list(expansion.items()) == list(want_expansion.items())
        cleared += steps > 0
    assert cleared > 0


def test_the_iteration_cap_counts_subtractions_as_before(monkeypatch):
    setup = _so8()
    h, k = max(_clearing_inputs(setup), key=lambda hk: _min_scan_clear(setup, *hk)[2])
    steps = _min_scan_clear(setup, h, k)[2]
    assert steps > 1
    ints, den = _ints(h)
    monkeypatch.setattr(enveloping, "CLEAR_MAX_ITER", steps + 1)
    setup._clear(ints, k, den)
    for cap in (steps, 1):
        monkeypatch.setattr(enveloping, "CLEAR_MAX_ITER", cap)
        with pytest.raises(AssertionError, match="failed to terminate"):
            setup._clear(ints, k, den)


def test_a_word_left_after_its_step_is_taken_again_until_the_cap(monkeypatch):
    # with every theta monomial doubled, no subtraction clears the word it
    # was taken for, so the loop takes it again and again and must stop at
    # the cap, not return with it uncleared
    setup = _so8()
    original = setup._theta_monomial
    monkeypatch.setattr(setup, "_theta_monomial", lambda word: {t: 2 * c for t, c in original(word).items()})
    monkeypatch.setattr(enveloping, "CLEAR_MAX_ITER", 40)
    h, k = next(hk for hk in _clearing_inputs(setup) if hk[1] is not None)
    ints, den = _ints(h)
    with pytest.raises(AssertionError, match="failed to terminate"):
        setup._clear(ints, k, den)


def test_a_same_degree_generator_still_stops_the_lift():
    setup = _so8()
    k = max(range(setup.r), key=lambda k: setup.x_degrees[k])
    j = next(j for j in range(setup.r) if j != k and setup.x_degrees[j] == setup.x_degrees[k])
    h = {(k,): 1, (j,): -2, (0, 0): 1}
    with pytest.raises(AssertionError, match=f"met a same-degree generator x_{j}"):
        setup._clear(h, k, 1)


# -- the theta memo -------------------------------------------------------------------


@pytest.mark.parametrize("method,degree", [("theta_zero", 0), ("theta_one", 1)])
def test_maps_in_any_key_order_with_ints_or_fractions_share_one_entry(method, degree):
    # x is the sum of two basis vectors of the degree, so its map has two
    # keys to take in either order
    setup = _fresh((2, 1, 1), -1)
    a, b = [k for k in range(setup.r) if setup.x_degrees[k] == degree][:2]
    x = dict(sorted({**setup.basis_vectors[a], **setup.basis_vectors[b]}.items()))
    assert len(x) == 2 and all(c.denominator == 1 for c in x.values())
    ints = list(x.items())
    fractions = [(i, Fraction(c)) for i, c in ints]
    forms = [x, dict(ints), dict(ints[::-1]), dict(fractions), dict(fractions[::-1]), dict(fractions[:1] + ints[1:])]
    values = [getattr(setup, method)(form) for form in forms]
    assert all(v is values[0] for v in values)
    assert setup._vector_memo == {method: {tuple(ints): values[0]}}
    assert values[0] == getattr(_fresh((2, 1, 1), -1), method)(x)


@pytest.mark.parametrize("parts,eps", cli.W_SUITE_CASES + (SO8,))
def test_a_walgebra_run_leaves_every_shared_value_as_built(parts, eps, monkeypatch):
    made = []

    class Recorded(WSetup):
        def __init__(self, rep):
            super().__init__(rep)
            made.append(self)

    monkeypatch.setattr(cli, "WSetup", Recorded)
    cli._walgebra(parts, eps)
    (setup,) = made
    fresh = _fresh(parts, eps)
    fresh.build_all_thetas()
    assert setup.thetas.keys() == fresh.thetas.keys()
    for k, th in setup.thetas.items():
        assert list(th.value.items()) == list(fresh.thetas[k].value.items())
        assert th.expansion == fresh.thetas[k].expansion
    assert setup._vector_memo
    for method, memo in setup._vector_memo.items():
        for key, value in memo.items():
            assert list(value.items()) == list(getattr(_fresh(parts, eps), method)(dict(key)).items())


def _jems_calls(monkeypatch, perturb_at=None) -> int:
    """Run the sp_4 (2,1,1) W-algebra suite case, counting the q_comm calls
    made by jems_commutator_check; the call numbered perturb_at gets one
    term off by 1."""
    original = UAlgebra.q_comm
    calls = []

    def q_comm(self, x, y):
        out = original(self, x, y)
        if sys._getframe(1).f_code.co_name == "jems_commutator_check":
            calls.append(1)
            if len(calls) == perturb_at:
                out = dict(out)
                t = next(iter(out), ())
                out[t] = out.get(t, 0) + 1
        return out

    monkeypatch.setattr(UAlgebra, "q_comm", q_comm)
    cli._walgebra(*cli.W_SUITE_CASES[0])
    return len(calls)


def test_every_commutator_law_pair_is_still_compared(monkeypatch):
    setup = _fresh(*cli.W_SUITE_CASES[0])
    zero = [k for k in range(setup.r) if setup.x_degrees[k] == 0]
    low = [k for k in range(setup.r) if setup.x_degrees[k] in (0, 1)]
    calls = _jems_calls(monkeypatch)
    assert calls == len(zero) * len(low) > 1
    # one wrong term in the last comparison alone fails the suite case
    with pytest.raises(AssertionError, match="commutator law fails"):
        _jems_calls(monkeypatch, perturb_at=calls)
