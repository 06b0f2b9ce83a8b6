"""Exact linear algebra: rank/kernel, SNF certificates, saturation."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import linalg
from orbitforge.rings import Ring, ZZ, QQ, GF, format_rational, is_two_power_denominator
from orbitforge.linalg import (
    SparseMatrix,
    VectorSpan,
    closure_ranks,
    divisor_chain,
    inverse_rows,
    rank_kernel,
    row_span,
    solve,
    smith_normal_form,
    integer_kernel_basis,
    complete_saturated_basis,
)

from dense_matrices import from_dense, to_dense


def _map(vec, ring) -> dict:
    """The nonzero entries of the dense vector vec, coerced into ring, as a
    sorted {index: scalar} map."""
    return {i: y for i, x in enumerate(vec) if (y := ring.coerce(x))}


def _nonzero(vec) -> dict:
    """The nonzero entries of a dense reference vector, as they are, as a
    sorted {index: scalar} map."""
    return {i: x for i, x in enumerate(vec) if x != 0}


def test_identity_rank():
    m = SparseMatrix.identity(3, QQ)
    rank, kernel = rank_kernel(m)
    assert rank == 3 and kernel == []


def test_getitem_builds_a_zero_only_for_a_missing_entry():
    m = SparseMatrix(2, 2, QQ, {(0, 1): Fraction(1, 2)})
    assert m[0, 1] is m.entries[(0, 1)]
    missing = m[1, 0]
    assert missing == 0 and type(missing) is int
    assert SparseMatrix(2, 2, GF(5), {(0, 0): 7})[0, 0] == 2
    assert SparseMatrix(2, 2, GF(5))[1, 1] == 0


def test_zero_matrix_kernel():
    m = SparseMatrix(2, 5, QQ)
    rank, kernel = rank_kernel(m)
    assert rank == 0 and kernel == [{j: 1} for j in range(5)]


def test_rank_kernel_rejects_integers():
    with pytest.raises(ValueError):
        rank_kernel(SparseMatrix.identity(2, ZZ))


def test_ad_e_kernel_dimension_sp4():
    # independent cross-check of the closed formula (1/2)(sum conj^2 + #odd)
    from orbitforge.partitions import Partition
    from orbitforge.orbits import build_nilpotent, ad_e_matrix

    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    rank, kernel = rank_kernel(ad_e_matrix(rep).change_ring(QQ))
    assert len(kernel) == (10 + 2) // 2 == 6


def test_snf_diag_2_3():
    m = from_dense([[2, 0], [0, 3]], ZZ)
    res = smith_normal_form(m)
    assert res.divisors == [1, 6]


def test_snf_zero():
    res = smith_normal_form(SparseMatrix(3, 2, ZZ))
    assert res.divisors == [0, 0]


def test_snf_chevalley_lattice_sp4_22():
    # saturation over Z[1/2]: nonzero divisors must be powers of 2
    from orbitforge.partitions import Partition
    from orbitforge.orbits import ad_e_matrix, build_nilpotent

    rep = build_nilpotent(Partition((2, 2)), -1)
    res = smith_normal_form(ad_e_matrix(rep).change_ring(ZZ))
    nonzero = [d for d in res.divisors if d]
    assert all(d & (d - 1) == 0 for d in nonzero)
    assert res.divisors == [1, 1, 1, 1, 2, 2, 0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_certificates_recompose(rows):
    m = from_dense(rows, ZZ)
    res = smith_normal_form(m)  # recomposition is asserted inside
    for i in range(len(res.divisors) - 1):
        if res.divisors[i]:
            assert res.divisors[i + 1] % res.divisors[i] == 0
        else:
            assert res.divisors[i + 1] == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9, 12]), max_size=8))
def test_divisor_chain_is_the_snf_of_the_diagonal(entries):
    n = len(entries)
    diag = SparseMatrix(n, n, ZZ, {(i, i): x for i, x in enumerate(entries) if x})
    assert divisor_chain(entries) == smith_normal_form(diag).divisors


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_solve_verifies_by_substitution(rows, x):
    m = from_dense([[Fraction(v) for v in row] for row in rows], QQ)
    b = m.apply(_map(x, QQ))
    sol = solve(m, b)
    assert sol is not None
    assert m.apply(sol) == b


def test_integer_kernel_is_saturated():
    m = from_dense([[2, 4, 0], [1, 2, 0]], ZZ)
    ker = integer_kernel_basis(m)
    assert len(ker) == 2
    comp = complete_saturated_basis(ker, 3)
    assert len(comp) == 1


def test_rational_serialization():
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert Fraction("7/2") == Fraction(7, 2)
    assert Fraction("-5") == Fraction(-5)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_roundtrip(num, den):
    x = Fraction(num, den)
    assert Fraction(format_rational(x)) == x


def test_two_power_denominators():
    assert is_two_power_denominator(Fraction(3, 8))
    assert is_two_power_denominator(5)
    assert not is_two_power_denominator(Fraction(1, 6))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=4),
    st.sampled_from([3, 5, 7]),
)
def test_rank_never_grows_mod_p(rows, p):
    m = from_dense(rows, ZZ)
    rank_q, _ = rank_kernel(m.change_ring(QQ))
    rank_p = row_span(m.change_ring(GF(p))).rank
    assert rank_p <= rank_q


def test_gf_field_ops():
    f = GF(7)
    assert f.div(1, 3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert f.coerce(Fraction(1, 2)) == 4
    with pytest.raises(ValueError):
        GF(2)
    with pytest.raises(ValueError):
        GF(9)


# -- the sparse echelon span against dense Gauss-Jordan elimination -------------


def _eliminate(rows, ring):
    """Reference: in-place dense Gauss-Jordan over a field; returns the pivot
    columns.  The reduced echelon form is unique, so the sparse span must
    reproduce it exactly."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.div(1, rows[r][c])
        if rows[r][c] != 1:
            rows[r] = [ring.coerce(inv * x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [ring.coerce(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _ref_echelon(rows, ring):
    rows = [[ring.coerce(x) for x in row] for row in rows]
    pivots = _eliminate(rows, ring)
    return rows[:len(pivots)], pivots


def _ref_rank_kernel(rows, ring):
    ncols = len(rows[0])
    echelon, pivots = _ref_echelon(rows, ring)
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ring.coerce(0)] * ncols
        vec[fc] = ring.coerce(1)
        for r, pc in enumerate(pivots):
            vec[pc] = ring.coerce(-echelon[r][fc])
        kernel.append(_nonzero(vec))
    return len(pivots), kernel


def _ref_solve(rows, b: dict, ring):
    ncols = len(rows[0])
    echelon, pivots = _ref_echelon([list(row) + [b.get(i, 0)] for i, row in enumerate(rows)], ring)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ring.coerce(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][ncols]
    return _nonzero(x)


def _ref_inverse(rows, ring):
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    echelon, pivots = _ref_echelon(aug, ring)
    if pivots[:n] != list(range(n)):
        return None
    return [_nonzero(row[n:]) for row in echelon]


FIELDS = st.sampled_from([QQ, GF(3), GF(7)])
# denominators prime to 3 and 7, so that every entry lives in every field
ENTRY = st.one_of(
    st.just(0), st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4, 5])),
)


def matrices(min_rows=1, max_rows=5, min_cols=1, max_cols=5):
    return st.integers(min_cols, max_cols).flatmap(
        lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=min_rows, max_size=max_rows))


@settings(max_examples=150, deadline=None)
@given(matrices(), FIELDS)
def test_rank_kernel_and_rank_match_the_reference(rows, ring):
    # kernels are taken over QQ; over GF(p) only the rank is read
    m = from_dense(rows, ring)
    if ring == QQ:
        assert repr(rank_kernel(m)) == repr(_ref_rank_kernel(rows, ring))
    span = VectorSpan(ring)
    for row in rows:
        span.add(_map(row, ring))
    assert span.rank == row_span(m).rank == _ref_rank_kernel(rows, ring)[0]


@settings(max_examples=150, deadline=None)
@given(matrices(), FIELDS, st.data())
def test_solve_matches_the_reference(rows, ring, data):
    # solutions are taken over QQ; over GF(p) only consistency is read, as
    # whether appending b to m as a column raises the rank
    m = from_dense(rows, ring)
    x = data.draw(st.lists(ENTRY, min_size=m.ncols, max_size=m.ncols))
    consistent = m.apply(_map(x, ring))
    arbitrary = _map(data.draw(st.lists(ENTRY, min_size=m.nrows, max_size=m.nrows)), ring)
    for b in (consistent, arbitrary):
        want = _ref_solve(rows, b, ring)
        if ring == QQ:
            assert repr(solve(m, b)) == repr(want)
        else:
            column = {(i, m.ncols): y for i, y in b.items()}
            augmented = SparseMatrix(m.nrows, m.ncols + 1, ring, {**m.entries, **column})
            assert (want is None) is (row_span(augmented).rank > row_span(m).rank)
    assert _ref_solve(rows, consistent, ring) is not None


def test_solve_reports_an_inconsistent_system():
    m = from_dense([[1, 2], [2, 4]], QQ)
    assert solve(m, {0: 1, 1: 1}) is None and _ref_solve([[1, 2], [2, 4]], {0: 1, 1: 1}, QQ) is None


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(17), ZZ], ids=str)
def test_kernels_and_solutions_are_taken_over_qq_and_closures_on_packed_rows(ring):
    # over GF(p) a span is never read back, ZZ goes through the SNF, and a
    # closure runs on packed rows, so over GF(p) with p <= 13 only
    m = SparseMatrix.identity(2, ring)
    if ring == QQ:
        assert rank_kernel(m) == (2, []) and solve(m, {0: 1}) == {0: 1}
    else:
        for call in (lambda: rank_kernel(m), lambda: solve(m, {0: 1})):
            with pytest.raises(ValueError, match=re.escape(f"over QQ, not {ring}")):
                call()
    if ring == GF(3):
        assert closure_ranks(ring, [{0: 1}], [m]) == [1]
    else:
        with pytest.raises(ValueError, match=re.escape(f"p <= 13, not {ring}")):
            closure_ranks(ring, [{0: 1}], [m])


def test_solve_rejects_a_right_hand_side_entry_outside_the_rows():
    # a map reads a missing key as 0, so a short right-hand side is fine;
    # a key past the last row (a long one) or below 0 is not a row of m
    m = SparseMatrix(2, 2, QQ, {(0, 0): 1, (1, 1): 1})
    assert solve(m, {0: 1, 1: 2}) == {0: 1, 1: 2} and solve(m, {1: 2}) == {1: 2}
    for b in ({0: 1, 1: 2, 2: 3}, {-1: 1}, {5: 0}):
        with pytest.raises(ValueError, match="outside the 2 rows"):
            solve(m, b)


def test_apply_and_inverse_rows_reject_a_key_outside_the_matrix():
    # as in solve: a missing key reads as 0, a key past the last column is
    # not one, and inverse_rows would overwrite key n with the identity block
    m = SparseMatrix(2, 2, QQ, {(0, 0): 1, (1, 1): 1})
    assert m.apply({1: 7}) == {1: 7}
    with pytest.raises(ValueError, match=r"entries \[5\] outside the 2 columns"):
        m.apply({0: 1, 5: 7})
    for rows in ([{0: 1, 2: 5}, {1: 1}], [{0: 1, 3: 5}, {1: 1}]):
        with pytest.raises(ValueError, match="row 0 has entries .* outside the 2 columns"):
            inverse_rows(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)),
       st.booleans())
def test_inverse_rows_matches_the_reference(rows, singular):
    if singular:
        rows = rows[:-1] + [rows[0] if len(rows) > 1 else [0]]   # a repeated or zero row
    inv = inverse_rows([_map(row, QQ) for row in rows])
    assert repr(inv) == repr(_ref_inverse(rows, QQ))
    assert (inv is None) == (singular or _ref_rank_kernel(rows, QQ)[0] < len(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), FIELDS, st.data())
def test_vector_span_rows_do_not_depend_on_insertion_order(rows, ring, data):
    # over GF(p) only the pivots and membership are read; over QQ, the rows
    order = data.draw(st.permutations(range(len(rows))))
    spans = []
    for seq in (range(len(rows)), order):
        span = VectorSpan(ring)
        for i in seq:
            span.add(_map(rows[i], ring))
        spans.append(span)
    echelon, pivots = _ref_echelon(rows, ring)
    for span in spans:
        assert span.pivots == pivots
        assert all(span.contains(_map(row, ring)) for row in echelon)
    if ring == QQ:
        same = [repr([sorted(span._rows[p].items()) for p in span.pivots]) for span in spans]
        assert same[0] == same[1] == repr([[(c, x) for c, x in enumerate(row) if x != 0] for row in echelon])


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), FIELDS)
def test_vector_span_add_and_contains_follow_the_reference_rank(rows, ring):
    span = VectorSpan(ring)
    for k, row in enumerate(rows):
        before = _ref_rank_kernel(rows[:k], ring)[0] if k else 0
        grows = _ref_rank_kernel(rows[:k + 1], ring)[0] > before
        vec = _map(row, ring)
        assert span.contains(vec) is not grows
        assert span.add(vec) is grows
        assert span.contains(vec) and span.rank == before + grows


def test_rank_kernel_checks_every_kernel_vector(monkeypatch):
    # an echelon span of [1, 1, 2] in place of [1, 1, 1]: the first kernel
    # vector (-1, 1, 0) is still right, the second (-2, 0, 1) is not
    m = from_dense([[1, 1, 1]], QQ)
    wrong = linalg.row_span(from_dense([[1, 1, 2]], QQ))
    monkeypatch.setattr(linalg, "row_span", lambda _m: wrong)
    with pytest.raises(AssertionError, match="substitution"):
        rank_kernel(m)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(17)], ids=str)
def test_a_zero_entry_counts_as_absent_in_both_row_formats(ring):
    # VectorSpan's sparse rows over every field, and the byte-packed rows of
    # closure_ranks' own span over GF(3)
    span = VectorSpan(ring)
    assert span.add({0: 1, 2: 5}) is True
    assert span.add({0: 0, 1: 1}) is True
    assert VectorSpan(ring).add({4: 0}) is False
    assert span.contains({0: 1, 1: 0, 2: 5}) and not span.contains({2: 1, 3: 0})
    assert span.add({0: 1, 1: 1, 2: 5, 3: 0}) is False
    assert span.pivots == [0, 1] and not span.contains({2: 1}) and not span.contains({3: 1})
    if ring == GF(3):
        assert closure_ranks(ring, [{0: 0}, {0: 0, 1: 1}], [SparseMatrix(2, 2, ring, {(0, 1): 1})]) == [0, 2]


@pytest.mark.parametrize("p", [3, 13, 17, 101])
def test_a_gf_p_span_takes_every_entry_mod_p(p):
    # an entry that p divides counts as absent, and any other as its
    # residue, at every prime
    span = VectorSpan(GF(p))
    assert span.add({0: p}) is False and span.add({0: -2 * p}) is False and span.rank == 0
    assert span.add({1: 1}) is True
    assert span.contains({0: p, 1: 1}) and span.contains({1: 1 - p}) and span.contains({0: -p, 1: 3 * p + 1})
    assert span.add({0: p + 2, 1: 5 * p}) is True and span.pivots == [0, 1]
    assert span.contains({0: 2 - p}) and not span.contains({2: p + 1})


# -- ring-closed results against the coercing constructor -----------------------


RINGS = [ZZ, QQ, GF(3), GF(7)]
# scalars for scale: ENTRY's, and rationals that ZZ and GF(3) cannot hold
SCALARS = st.one_of(ENTRY, st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(4, 1)]))


def _entries(ring, nrows, ncols):
    """A dict of entries for a nrows x ncols matrix over ring, drawn from
    ENTRY (integers only over ZZ)."""
    value = st.integers(-4, 4) if ring.kind == "ZZ" else ENTRY
    keys = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    return st.dictionaries(keys, value, max_size=nrows * ncols)


def _coerced(nrows, ncols, ring, entries):
    """The coercing constructor's matrix, or the ValueError it raises."""
    try:
        return SparseMatrix(nrows, ncols, ring, entries)
    except ValueError as exc:
        return exc


def _assert_same(result, reference):
    """Same shape, ring, entries and scalar types, and no stored zeros."""
    assert (result.nrows, result.ncols, result.ring) == (reference.nrows, reference.ncols, reference.ring)
    assert result.entries == reference.entries
    assert all(type(v) is type(reference.entries[k]) for k, v in result.entries.items())
    assert all(v != 0 for v in result.entries.values())


def _check(op, reference):
    if isinstance(reference, ValueError):
        with pytest.raises(ValueError):
            op()
    else:
        _assert_same(op(), reference)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_closed_results_match_the_coercing_constructor(data):
    # operands share one ring (across rings they raise); other_ring is for change_ring
    ring, other_ring = (data.draw(st.sampled_from(RINGS)) for _ in range(2))
    nr, k, nc = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = SparseMatrix(nr, k, ring, data.draw(_entries(ring, nr, k)))
    b = SparseMatrix(nr, k, ring, data.draw(_entries(ring, nr, k)))
    c = SparseMatrix(k, nc, ring, data.draw(_entries(ring, k, nc)))

    product = {}
    for (r, j), x in a.entries.items():
        for (jj, col), y in c.entries.items():
            if j == jj:
                product[(r, col)] = product.get((r, col), 0) + x * y
    _check(lambda: a @ c, _coerced(nr, nc, ring, product))
    for op, sign in ((a.__add__, 1), (a.__sub__, -1)):
        total = dict(a.entries)
        for key, y in b.entries.items():
            total[key] = total.get(key, 0) + sign * y
        _check(lambda: op(b), _coerced(nr, k, ring, total))
    _check(lambda: -a, _coerced(nr, k, ring, {key: -x for key, x in a.entries.items()}))
    scalar = data.draw(SCALARS)
    # a scalar the ring cannot hold raises, whatever the entries
    scaled = _coerced(1, 1, ring, {(0, 0): scalar})
    if not isinstance(scaled, ValueError):
        scaled = _coerced(nr, k, ring, {key: x * scalar for key, x in a.entries.items()})
    _check(lambda: a.scale(scalar), scaled)
    _check(a.transpose, _coerced(k, nr, ring, {(j, r): x for (r, j), x in a.entries.items()}))
    cols = data.draw(st.lists(st.integers(0, k - 1), unique=True))
    at = {j: jj for jj, j in enumerate(cols)}
    _check(lambda: a.columns(cols),
           _coerced(nr, len(cols), ring, {(r, at[j]): x for (r, j), x in a.entries.items() if j in at}))
    _check(lambda: a.change_ring(other_ring), _coerced(nr, k, other_ring, dict(a.entries)))
    assert a.change_ring(ring) is a


@pytest.mark.parametrize("other_ring", [QQ, GF(7)])
def test_sums_and_products_reject_mismatched_shapes(other_ring):
    a = SparseMatrix(2, 3, QQ, {(0, 2): 1, (1, 0): 2})
    for b in (SparseMatrix(3, 3, other_ring, {(2, 2): 1}), SparseMatrix(2, 2, other_ring, {(1, 1): 1})):
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(b)
    with pytest.raises(ValueError, match="shape mismatch"):
        a @ SparseMatrix(2, 3, other_ring, {})


def test_zz_scale_by_a_rational():
    # 1/2 is not in ZZ, so the scale raises even where every product is integral
    even = SparseMatrix(2, 2, ZZ, {(0, 0): 2, (1, 0): -4})
    with pytest.raises(ValueError, match="not an integer"):
        even.scale(Fraction(1, 2))
    assert even.scale(Fraction(4, 2)).entries == {(0, 0): 4, (1, 0): -8}


@pytest.mark.parametrize("ring, other_ring", [(ZZ, QQ), (QQ, ZZ), (QQ, GF(7)), (GF(3), GF(7)), (GF(7), ZZ)])
def test_sums_and_products_reject_operands_over_two_rings(ring, other_ring):
    a = SparseMatrix(2, 2, ring, {(0, 0): 2, (1, 0): -4})
    b = SparseMatrix(2, 2, other_ring, {(0, 1): 1})
    for op in (a.__add__, a.__sub__, a.__matmul__, b.__add__, b.__sub__, b.__matmul__):
        with pytest.raises(ValueError, match="ring mismatch"):
            op(b if op.__self__ is a else a)


@pytest.mark.parametrize("ring, other_ring", [(GF(3), QQ), (ZZ, QQ), (GF(3), GF(7)), (GF(7), ZZ)])
def test_equality_compares_the_ring(ring, other_ring):
    # equal shapes and entries over two rings are two matrices, as the
    # difference of the pair, which raises, says
    a = SparseMatrix(2, 2, ring, {(0, 0): 1})
    b = SparseMatrix(2, 2, other_ring, {(0, 0): 1})
    assert a.entries == b.entries
    assert a != b and b != a and not a == b
    assert a == SparseMatrix(2, 2, ring, {(0, 0): 1})
    with pytest.raises(ValueError, match="ring mismatch"):
        a - b


# -- the matrix bracket-law kernel ----------------------------------------------


def _dense_residue(mats: dict, n: int, a, b, terms, p: int) -> dict:
    """mats[a] mats[b] - mats[b] mats[a] - sum of c mats[k], cell by cell on
    dense indices, reduced mod p when p is given, without zeros."""
    def at(key, r, c):
        return mats[key].get((r, c), 0)

    out = {}
    for r in range(n):
        for c in range(n):
            v = sum(at(a, r, j) * at(b, j, c) - at(b, r, j) * at(a, j, c) for j in range(n))
            v -= sum(coeff * at(k, r, c) for k, coeff in terms)
            if p:
                v %= p
            if v:
                out[(r, c)] = v
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bracket_residues_match_a_dense_reference(data):
    p = data.draw(st.sampled_from([0, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = st.dictionaries(cell, st.integers(-3, 3) if not p else st.integers(0, p - 1), max_size=n * n)
    names = data.draw(st.lists(st.sampled_from("uvwxy"), min_size=1, max_size=4, unique=True))
    mats = {key: {rc: v for rc, v in data.draw(entries).items() if v} for key in names}
    # "br" is [mats[a0], mats[b0]], so with the term ("br", 1) that pair's residue is zero
    a0, b0 = names[0], names[-1]
    mats["br"] = _dense_residue(mats, n, a0, b0, (), p)
    keys = st.sampled_from(sorted(mats))
    pairs = data.draw(st.lists(st.tuples(keys, keys), max_size=8)) + [(a0, b0), (b0, b0)]
    terms = {}
    if data.draw(st.booleans()):
        terms = {pair: data.draw(st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=3)) for pair in pairs}
        terms[(a0, b0)] = [("br", 1)]
    rhs = (lambda a, b: terms[(a, b)]) if terms else None

    want = []
    for a, b in pairs:
        residue = _dense_residue(mats, n, a, b, terms.get((a, b), ()), p)
        if residue:
            want.append((a, b, residue))
    got = list(linalg.bracket_residues(mats, iter(pairs), rhs, p))
    assert got == want
    # a vanishing residue is never yielded: (b0, b0) without terms, (a0, b0) with them
    assert ((a0, b0) if terms else (b0, b0)) not in {(a, b) for a, b, _ in got}


@pytest.mark.parametrize("kind, p", [("ZZ", 0), ("QQ", 0), ("GF", 7)])
def test_same_ring_operations_do_not_coerce_their_results(kind, p):
    calls = []

    class CountingRing(Ring):
        def coerce(self, x):
            calls.append(x)
            return super().coerce(x)

    ring = CountingRing(kind, p)
    a = SparseMatrix(3, 3, ring, {(i, j): i + 2 * j + 1 for i in range(3) for j in range(3)})
    b = a.transpose()
    calls.clear()
    a @ b, a + b, a - b, -a, a.columns([2, 0])
    assert a.change_ring(ring) is a
    assert calls == []
    # scale coerces its scalar once, and none of the nine products
    a.scale(2)
    assert calls == [2]


# -- the SNF pivot loop is bounded ----------------------------------------------


def _snf_mutant_source() -> str:
    """linalg.py with the pivot loop's divisibility fix row_add(t, offender, 1)
    planted as row_add(t, offender, 2): with pivot 2 and an odd offender the
    doubled row is divisible by the pivot, so no remainder ever appears.
    Without the bound this loop never ends."""
    tree = ast.parse(Path(linalg.__file__).read_text())
    snf = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "smith_normal_form")
    planted = [call for call in ast.walk(snf)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "row_add"
               and len(call.args) == 3 and isinstance(call.args[1], ast.Name) and call.args[1].id == "offender"]
    assert len(planted) == 1
    planted[0].args[2] = ast.Constant(2)
    return ast.unparse(tree)


def test_snf_pivot_loop_raises_on_a_planted_non_terminating_step():
    script = (
        "import sys, time, types\n"
        "import orbitforge\n"
        "mod = sys.modules['orbitforge.snf_mutant'] = types.ModuleType('orbitforge.snf_mutant')\n"
        "mod.__package__ = 'orbitforge'\n"
        "exec(compile(sys.stdin.read(), 'snf_mutant', 'exec'), mod.__dict__)\n"
        "ns = mod.__dict__\n"
        "m = ns['SparseMatrix'](2, 2, ns['ZZ'], {(0, 0): 2, (1, 1): 3})\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    ns['smith_normal_form'](m)\n"
        "except AssertionError as exc:\n"
        "    print(repr(str(exc)), time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], input=_snf_mutant_source(),
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    message, seconds = done.stdout.rsplit(" ", 1)
    assert message == repr("SNF pivot loop failed to terminate") and float(seconds) < 1.0
    # the unplanted loop finishes on the same matrix: diag(2, 3) ~ diag(1, 6)
    assert smith_normal_form(from_dense([[2, 0], [0, 3]], ZZ)).divisors == [1, 6]


# -- the sparse SNF against the dense one it replaced ---------------------------


def _ref_snf(m: SparseMatrix):
    """Reference: the dense Smith normal form orbitforge ran before its
    working matrices became maps, on lists of rows; (divisors, U, V, U^-1,
    V^-1).  The sparse one keeps its pivot rule and operation order, so it
    must give these entry for entry."""
    a = to_dense(m)
    nr, nc = m.nrows, m.ncols
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    Uinv = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]
    Vinv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in range(nr):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_add(i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for r in range(nr):
            Uinv[r][j] -= q * Uinv[r][i]

    def col_swap(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(i, j, q):
        for r in range(nr):
            a[r][i] += q * a[r][j]
        for r in range(nc):
            V[r][i] += q * V[r][j]
        Vinv[j] = [x - q * y for x, y in zip(Vinv[j], Vinv[i])]

    def clear_column(t):
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                row_add(i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    row_swap(t, i)
                    dirty = True
        return dirty

    def clear_row(t):
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                col_add(j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    col_swap(t, j)
                    return True
        return False

    def offending_row(t):
        for i in range(t + 1, nr):
            if any(a[i][j] % a[t][t] for j in range(t + 1, nc)):
                return i
        return None

    limit = min(nr, nc)
    for t in range(limit):
        best, least = None, 0
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            if not clear_column(t) and not clear_row(t):
                offender = None if abs(a[t][t]) == 1 else offending_row(t)
                if offender is None:
                    break
                row_add(t, offender, 1)
                clear_row(t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
            for r in range(nr):
                Uinv[r][t] = -Uinv[r][t]
    return [a[i][i] for i in range(limit)], U, V, Uinv, Vinv


def _assert_snf_is_the_reference(m: SparseMatrix):
    res = smith_normal_form(m)
    got = (res.divisors, *(to_dense(x) for x in (res.left, res.right, res.left_inv, res.right_inv)))
    assert got == _ref_snf(m)


@st.composite
def integer_matrices(draw):
    """0-6 x 0-6 integer matrices whose rows are drawn ones, zero rows and
    integer combinations of the drawn ones, shuffled: rank-deficient and
    non-square ones among them."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-200, 200))
    base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=nr))
    rows = list(base)
    while len(rows) < nr:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(nc)])
    rows = draw(st.permutations(rows))
    return SparseMatrix(nr, nc, ZZ, {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x})


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_snf_matches_the_dense_reference(m):
    _assert_snf_is_the_reference(m)


def test_snf_matches_the_dense_reference_on_the_lattice_blocks(monkeypatch):
    # every ad e block g(d) -> g(d + 2) over ZZ with N <= 8, and every SNF
    # WSetup runs on its (degree, weight) column blocks and their kernels
    from orbitforge.enveloping import WSetup
    from orbitforge.orbits import ad_e_block, build_nilpotent, dynkin_grading
    from orbitforge.partitions import admissible_partitions

    inputs = []
    monkeypatch.setattr(linalg, "smith_normal_form", lambda m: inputs.append(m) or smith_normal_form(m))
    reps = [build_nilpotent(lam, eps) for n in range(2, 9) for eps in (1, -1) if eps == 1 or n % 2 == 0
            for lam in admissible_partitions(n, eps)]
    for rep in reps:
        inputs.extend(ad_e_block(rep, d, ZZ) for d in dynkin_grading(rep).layers)
        WSetup(rep)
    assert len(reps) == 60 and len(inputs) > 1000
    for m in inputs:
        _assert_snf_is_the_reference(m)
