"""Exact linear algebra: rank/kernel, SNF certificates, saturation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import linalg
from orbitforge.rings import Ring, ZZ, QQ, GF, format_rational, is_two_power_denominator
from orbitforge.linalg import (
    SparseMatrix,
    VectorSpan,
    inverse_rows,
    rank_kernel,
    rank_of_vectors,
    solve,
    sparse_vector,
    smith_normal_form,
    integer_kernel_basis,
    complete_saturated_basis,
)


def test_identity_rank():
    m = SparseMatrix.identity(3, QQ)
    rank, kernel = rank_kernel(m)
    assert rank == 3 and kernel == []


def test_getitem_builds_a_zero_only_for_a_missing_entry():
    zeros = []

    class CountingQQ(Ring):
        def zero(self):
            zeros.append(1)
            return super().zero()

    m = SparseMatrix(2, 2, CountingQQ("QQ"), {(0, 1): Fraction(1, 2)})
    assert m[0, 1] is m.entries[(0, 1)] and not zeros
    missing = m[1, 0]
    assert missing == 0 and type(missing) is Fraction and len(zeros) == 1
    assert SparseMatrix(2, 2, GF(5), {(0, 0): 7})[0, 0] == 2
    assert SparseMatrix.zeros(2, 2, GF(5))[1, 1] == 0


def test_zero_matrix_kernel():
    m = SparseMatrix.zeros(2, 5, QQ)
    rank, kernel = rank_kernel(m)
    assert rank == 0 and len(kernel) == 5


def test_rank_kernel_rejects_integers():
    with pytest.raises(ValueError):
        rank_kernel(SparseMatrix.identity(2, ZZ))


def test_ad_e_kernel_dimension_sp4():
    # independent cross-check of the closed formula (1/2)(sum conj^2 + #odd)
    from orbitforge.partitions import Partition
    from orbitforge.orbits import build_nilpotent, ad_e_matrix

    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    rank, kernel = rank_kernel(ad_e_matrix(rep))
    assert len(kernel) == (10 + 2) // 2 == 6


def test_snf_diag_2_3():
    m = SparseMatrix.from_dense([[2, 0], [0, 3]], ZZ)
    res = smith_normal_form(m)
    assert res.divisors == [1, 6]


def test_snf_zero():
    res = smith_normal_form(SparseMatrix.zeros(3, 2, ZZ))
    assert res.divisors == [0, 0]


def test_snf_chevalley_lattice_sp4_22():
    # saturation over Z[1/2]: nonzero divisors must be powers of 2
    from orbitforge.partitions import Partition
    from orbitforge.orbits import ad_e_matrix, build_nilpotent

    rep = build_nilpotent(Partition((2, 2)), -1)
    res = smith_normal_form(ad_e_matrix(rep, ZZ))
    nonzero = [d for d in res.divisors if d]
    assert all(d & (d - 1) == 0 for d in nonzero)
    assert res.divisors == [1, 1, 1, 1, 2, 2, 0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_certificates_recompose(rows):
    m = SparseMatrix.from_dense(rows, ZZ)
    res = smith_normal_form(m)  # recomposition is asserted inside
    for i in range(len(res.divisors) - 1):
        if res.divisors[i]:
            assert res.divisors[i + 1] % res.divisors[i] == 0
        else:
            assert res.divisors[i + 1] == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_solve_verifies_by_substitution(rows, x):
    m = SparseMatrix.from_dense([[Fraction(v) for v in row] for row in rows], QQ)
    b = m.apply(tuple(Fraction(v) for v in x))
    sol = solve(m, list(b))
    assert sol is not None
    assert m.apply(sol) == b


def test_integer_kernel_is_saturated():
    m = SparseMatrix.from_dense([[2, 4, 0], [1, 2, 0]], ZZ)
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
    m = SparseMatrix.from_dense(rows, ZZ)
    rank_q, _ = rank_kernel(m.change_ring(QQ))
    rank_p, _ = rank_kernel(m.change_ring(GF(p)))
    assert rank_p <= rank_q


def test_gf_field_ops():
    f = GF(7)
    assert f.div(f.one(), 3) == 5  # 3 * 5 = 15 = 1 mod 7
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
        inv = ring.div(ring.one(), rows[r][c])
        if rows[r][c] != ring.one():
            rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
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
        vec = [ring.zero()] * ncols
        vec[fc] = ring.one()
        for r, pc in enumerate(pivots):
            vec[pc] = ring.neg(echelon[r][fc])
        kernel.append(tuple(vec))
    return len(pivots), kernel


def _ref_solve(rows, b, ring):
    ncols = len(rows[0])
    echelon, pivots = _ref_echelon([list(row) + [x] for row, x in zip(rows, b)], ring)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ring.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][ncols]
    return tuple(x)


def _ref_inverse(rows, ring):
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    echelon, pivots = _ref_echelon(aug, ring)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in echelon]


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
    m = SparseMatrix.from_dense(rows, ring)
    assert repr(rank_kernel(m)) == repr(_ref_rank_kernel(rows, ring))
    assert rank_of_vectors(rows, ring) == _ref_rank_kernel(rows, ring)[0]


@settings(max_examples=150, deadline=None)
@given(matrices(), FIELDS, st.data())
def test_solve_matches_the_reference(rows, ring, data):
    m = SparseMatrix.from_dense(rows, ring)
    x = data.draw(st.lists(ENTRY, min_size=m.ncols, max_size=m.ncols))
    consistent = list(m.apply(tuple(ring.coerce(v) for v in x)))
    assert solve(m, consistent) is not None
    arbitrary = data.draw(st.lists(ENTRY, min_size=m.nrows, max_size=m.nrows))
    for b in (consistent, arbitrary):
        assert repr(solve(m, b)) == repr(_ref_solve(rows, b, ring))


def test_solve_reports_an_inconsistent_system():
    for ring in (QQ, GF(3), GF(7)):
        m = SparseMatrix.from_dense([[1, 2], [2, 4]], ring)
        assert solve(m, [1, 1]) is None and _ref_solve([[1, 2], [2, 4]], [1, 1], ring) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)),
       st.booleans())
def test_inverse_rows_matches_the_reference(rows, singular):
    if singular:
        rows = rows[:-1] + [rows[0] if len(rows) > 1 else [0]]   # a repeated or zero row
    inv = inverse_rows(rows)
    assert repr(inv) == repr(_ref_inverse(rows, QQ))
    assert (inv is None) == (singular or _ref_rank_kernel(rows, QQ)[0] < len(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), FIELDS, st.data())
def test_vector_span_rows_do_not_depend_on_insertion_order(rows, ring, data):
    order = data.draw(st.permutations(range(len(rows))))
    spans = []
    for seq in (range(len(rows)), order):
        span = VectorSpan(ring, len(rows[0]))
        for i in seq:
            span.add(rows[i])
        spans.append(span)
    same = [repr([sorted(row.items()) for row in span.rows]) for span in spans]
    assert same[0] == same[1]
    echelon, pivots = _ref_echelon(rows, ring)
    assert spans[0].pivots == pivots
    assert same[0] == repr([[(c, x) for c, x in enumerate(row) if x != 0] for row in echelon])


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), FIELDS, st.booleans())
def test_vector_span_add_and_contains_follow_the_reference_rank(rows, ring, sparse):
    span = VectorSpan(ring, len(rows[0]))
    for k, row in enumerate(rows):
        before = _ref_rank_kernel(rows[:k], ring)[0] if k else 0
        grows = _ref_rank_kernel(rows[:k + 1], ring)[0] > before
        vec = sparse_vector(row, ring) if sparse else row
        assert span.contains(vec) is not grows
        assert span.add(vec) is grows
        assert span.contains(vec) and span.rank == before + grows


def test_rank_kernel_checks_every_kernel_vector(monkeypatch):
    # an echelon span of [1, 1, 2] in place of [1, 1, 1]: the first kernel
    # vector (-1, 1, 0) is still right, the second (-2, 0, 1) is not
    m = SparseMatrix.from_dense([[1, 1, 1]], QQ)
    wrong = linalg._row_span(SparseMatrix.from_dense([[1, 1, 2]], QQ))
    monkeypatch.setattr(linalg, "_row_span", lambda _m: wrong)
    with pytest.raises(AssertionError, match="substitution"):
        rank_kernel(m)


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
    ring = data.draw(st.sampled_from(RINGS))
    # mostly a shared ring; otherwise any ring, to reach the coercing path
    other_ring = data.draw(st.one_of(st.just(ring), st.sampled_from(RINGS)))
    nr, k, nc = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = SparseMatrix(nr, k, ring, data.draw(_entries(ring, nr, k)))
    b = SparseMatrix(nr, k, other_ring, data.draw(_entries(other_ring, nr, k)))
    c = SparseMatrix(k, nc, other_ring, data.draw(_entries(other_ring, k, nc)))

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
    _check(lambda: a.scale(scalar), _coerced(nr, k, ring, {key: x * scalar for key, x in a.entries.items()}))
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
    even = SparseMatrix(2, 2, ZZ, {(0, 0): 2, (1, 0): -4})
    half = even.scale(Fraction(1, 2))
    assert half.entries == {(0, 0): 1, (1, 0): -2} and all(type(v) is int for v in half.entries.values())
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ZZ, {(0, 1): 3}).scale(Fraction(1, 2))


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
