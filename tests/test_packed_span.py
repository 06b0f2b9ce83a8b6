"""The byte-packed GF(p) span against dense elimination.

VectorSpan over GF(p) with p <= 13 holds byte-packed rows and over any
other field dict rows; both must give the add return values, ranks,
pivots, reduced echelon rows and memberships of dense Gauss-Jordan
elimination (tests/test_linalg.py's reference, which shares no code with
linalg), on sparse and full {col: residue} maps, on columns far apart, and on
reductions long enough to renormalise the bytes on the way.  closure_ranks
is checked against a dense closure written here."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import linalg
from orbitforge.rings import GF
from orbitforge.linalg import VectorSpan, closure_ranks, lane_budget, rank_kernel, solve

from dense_matrices import from_dense
from test_linalg import _map, _ref_echelon, _ref_rank_kernel, _ref_solve

PACKED = [3, 5, 7, 11, 13]
PRIMES = PACKED + [17]


@pytest.mark.parametrize("p", PRIMES)
def test_the_lane_budget_keeps_every_byte_below_256(p):
    budget = lane_budget(GF(p))
    assert (budget > 0) is (p in PACKED)
    # a byte starts below p and grows by at most (p - 1)^2 per addition
    if budget:
        assert (p - 1) + budget * (p - 1) ** 2 <= 255 < (p - 1) + (budget + 1) * (p - 1) ** 2


@st.composite
def span_inputs(draw, min_cols=1, max_cols=8, max_rows=10, far=False):
    """(p, column keys, rows as dense lists over those keys, sparse flag)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_cols, max_cols))
    if far:
        keys = sorted(draw(st.sets(st.integers(0, 5000), min_size=n, max_size=n)))
    else:
        keys = list(range(n))
    sparse = draw(st.booleans())
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(1, p - 1)) if sparse else st.integers(1, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=max_rows))
    return p, keys, rows, sparse


class DenseEchelon:
    """A growing span mod p as dense int lists in echelon form, the row with
    pivot c 1 at c and 0 left of c: the dense reference for the packed span
    and for the submodule probe."""

    def __init__(self, p: int):
        self.p, self.rows = p, {}

    def add(self, vec: list) -> bool:
        p = self.p
        v = [x % p for x in vec]
        for c in range(len(v)):
            f = v[c]
            if not f:
                continue
            row = self.rows.get(c)
            if row is None:
                inv = pow(f, -1, p)
                self.rows[c] = [inv * x % p for x in v]
                return True
            v = [(x - f * y) % p for x, y in zip(v, row)]
        return False


def _on_keys(row, keys) -> dict:
    return {keys[j]: x for j, x in enumerate(row) if x}


def _check_against_the_reference(p, keys, rows, read_every=3):
    ring = GF(p)
    span, ref = VectorSpan(ring), DenseEchelon(p)
    for k, row in enumerate(rows):
        vec = _on_keys(row, keys)
        grows = ref.add(row)
        assert span.contains(vec) is not grows
        assert span.add(vec) is grows
        assert span.contains(vec)
        assert span.rank == len(ref.rows)
        if k % read_every == read_every - 1:
            # reading the rows in the middle leaves the span as it was, so
            # later additions still meet the semi-reduced rows
            echelon, _ = _ref_echelon(rows[:k + 1], ring)
            assert span.rows == [_on_keys(r, keys) for r in echelon]
    echelon, pivots = _ref_echelon(rows, ring)
    assert span.pivots == [keys[j] for j in pivots] == [keys[j] for j in sorted(ref.rows)]
    assert span.rows == [_on_keys(r, keys) for r in echelon]
    # each row's keys ascending, as every map leaving linalg
    assert [list(r) for r in span.rows] == [sorted(_on_keys(r, keys)) for r in echelon]


@settings(max_examples=200, deadline=None)
@given(span_inputs())
def test_add_contains_rank_pivots_and_rows_follow_dense_elimination(data):
    p, keys, rows, _ = data
    _check_against_the_reference(p, keys, rows)


@pytest.mark.parametrize("p", PRIMES)
def test_reading_the_rows_gives_sorted_maps_and_leaves_the_span_unchanged(p):
    span = VectorSpan(GF(p))
    for vec in ({0: 1, 1: 1, 3: 1}, {1: 1, 2: 1}):
        span.add(vec)
    held = copy.deepcopy(span._rows)
    # reducing row 0 at pivot 1 brings in column 2 after its column 3
    assert [list(r) for r in span.rows] == [[0, 2, 3], [1, 2]]
    assert span._rows == held


@settings(max_examples=100, deadline=None)
@given(span_inputs(far=True))
def test_far_apart_columns(data):
    p, keys, rows, _ = data
    _check_against_the_reference(p, keys, rows)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PACKED), st.integers(0, 2 ** 32))
def test_long_reductions_renormalise_on_the_way(p, seed):
    # dense rows over more columns than the budget: a reduction adds more
    # rows than one budget allows, so the bytes are renormalised mid-way
    rng = random.Random(seed)
    n = lane_budget(GF(p)) + 6
    rows = [[rng.randrange(1, p) for _ in range(n)] for _ in range(n + rng.randrange(2, 5))]
    calls = []
    normal = VectorSpan._normal

    def counted(self, u):
        calls.append(1)
        return normal(self, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VectorSpan, "_normal", counted)
        _check_against_the_reference(p, list(range(n)), rows, read_every=n)
    assert calls


FIELD_MATRICES = st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=1, max_size=6))))


@settings(max_examples=150, deadline=None)
@given(FIELD_MATRICES, st.data())
def test_rank_kernel_and_solve_over_gf_p_match_the_reference(pm, data):
    p, rows = pm
    ring = GF(p)
    m = from_dense(rows, ring)
    assert repr(rank_kernel(m)) == repr(_ref_rank_kernel(rows, ring))
    b = _map(data.draw(st.lists(st.integers(0, p - 1), min_size=m.nrows, max_size=m.nrows)), ring)
    assert repr(solve(m, b)) == repr(_ref_solve(rows, b, ring))


def _dense_closure_rank(p, seed, mats) -> int:
    """Breadth-first closure on dense lists: the images of each new vector
    in turn, each kept if it raises the dense rank."""
    basis = DenseEchelon(p)
    frontier = [list(seed)] if basis.add(seed) else []
    while frontier:
        nxt = []
        for v in frontier:
            for a in mats:
                w = [sum(x * y for x, y in zip(row, v)) % p for row in a]
                if basis.add(w):
                    nxt.append(w)
        frontier = nxt
    return len(basis.rows)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, 7))), st.data())
def test_closure_rank_matches_a_dense_closure(pn, data):
    # dense matrices have rows longer than the lane budget, so their
    # columns are split into several packed parts
    p, n = pn
    entry = st.integers(0, p - 1)
    seed = data.draw(st.lists(entry, min_size=n, max_size=n))
    mats = data.draw(st.lists(st.lists(st.lists(st.one_of(st.just(0), entry), min_size=n, max_size=n),
                                       min_size=n, max_size=n), max_size=3))
    want = _dense_closure_rank(p, seed, mats)
    (got,) = closure_ranks(GF(p), [_on_keys(seed, range(n))], [from_dense(a, GF(p)) for a in mats])
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), st.integers(2, 8))), st.data())
def test_closure_rank_stays_in_an_invariant_subspace(pn, data):
    # the first k coordinates span a subspace every matrix keeps; entries
    # mostly p - 1 make the bytes of a product as large as the lane budget
    # allows, so an image that overflowed a byte would leave the subspace
    p, n = pn
    k = data.draw(st.integers(1, n - 1))
    entry = st.one_of(st.just(p - 1), st.just(p - 1), st.just(0), st.integers(0, p - 1))
    seed = data.draw(st.lists(entry, min_size=k, max_size=k)) + [0] * (n - k)
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        a = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
        mats.append([[x if i < k or j >= k else 0 for j, x in enumerate(row)] for i, row in enumerate(a)])
    (got,) = closure_ranks(GF(p), [_on_keys(seed, range(n))], [from_dense(a, GF(p)) for a in mats])
    assert got == _dense_closure_rank(p, seed, mats) <= k


def test_the_rows_are_packed_up_to_13_and_dicts_above():
    span = VectorSpan(GF(13))
    span.add({1: 1, 2: 2})
    assert span._rows == {1: 2}   # the row 1 at column 1, 2 at column 2: byte 0 after the pivot is 2
    span = VectorSpan(GF(17))
    span.add({1: 1, 2: 2})
    assert span._rows == {1: {1: 1, 2: 2}}
    assert linalg.lane_budget(GF(13)) == 1 and linalg.lane_budget(GF(17)) == 0
