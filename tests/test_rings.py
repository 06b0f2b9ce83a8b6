"""The scalar contract of the exact rings: a QQ scalar is an int when it is
integral and a Fraction with denominator > 1 otherwise, every QQ result of
linalg holds its entries in that form, and no ring takes a float.  A prime
field's modulus passes one odd-prime test, exact below PRIME_BOUND."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.rings import GF, PRIME_BOUND, QQ, ZZ, Ring, canonical, integer_maps, is_odd_prime
from orbitforge.linalg import SparseMatrix, VectorSpan, inverse_rows, rank_kernel, solve

from dense_matrices import from_dense
from test_linalg import ENTRY, _map, _ref_echelon, _ref_inverse, _ref_rank_kernel, _ref_solve, matrices


class _FractionQQ(Ring):
    """QQ with every scalar a Fraction, integral or not: the reference the
    canonical form must equal by value."""

    def coerce(self, x):
        return Fraction(x)

    def div(self, a, b):
        return Fraction(a) / b


FRACTION_QQ = _FractionQQ("QQ")


def _is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _assert_canonical_equal(result, reference):
    """Same nesting, every scalar of result canonical and equal to the
    reference's by value."""
    if isinstance(reference, (list, tuple)):
        assert type(result) is type(reference) and len(result) == len(reference)
        for r, ref in zip(result, reference):
            _assert_canonical_equal(r, ref)
    elif isinstance(reference, dict):
        assert result.keys() == reference.keys()
        for k in reference:
            _assert_canonical_equal(result[k], reference[k])
    elif isinstance(reference, Fraction):
        assert _is_canonical(result) and result == reference, (result, reference)
    else:
        assert result == reference


def test_qq_zero_one_and_coerce_are_canonical():
    # a matrix writes its one and reads a missing entry as the ints 1 and 0
    one = SparseMatrix.identity(2, QQ)
    assert type(one[0, 0]) is int and one[0, 0] == 1 and type(one[0, 1]) is int and one[0, 1] == 0
    assert type(QQ.coerce(3)) is int
    assert QQ.coerce(Fraction(6, 3)) == 2 and type(QQ.coerce(Fraction(6, 3))) is int
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.coerce(True)) is int


def test_qq_arithmetic_is_canonical():
    half = Fraction(1, 2)
    for value in (canonical(half + half), canonical(Fraction(3, 2) - half), canonical(half * 4),
                  QQ.div(6, 3), QQ.div(half, half), QQ.div(Fraction(4, 3), Fraction(2, 3))):
        assert type(value) is int
    assert QQ.div(1, 2) == half and type(QQ.div(1, 2)) is Fraction
    assert QQ.div(-2, 4) == -half


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3), GF(7)])
@pytest.mark.parametrize("value", [2.7, 2.5, 0.1, 2.0, Decimal(2), "2", None])
def test_no_ring_takes_a_float_or_any_other_inexact_scalar(ring, value):
    with pytest.raises(TypeError):
        ring.coerce(value)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_matrices_refuse_a_float(ring):
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, ring, {(0, 0): 2.7})
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, ring, {(0, 0): 1}).scale(2.5)
    with pytest.raises(TypeError):
        from_dense([[0.5, 1]], ring)


def test_ring_ops_keep_their_types_off_qq():
    assert ZZ.coerce(Fraction(4, 2)) == 2 and type(ZZ.coerce(Fraction(4, 2))) is int
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))
    assert GF(7).coerce(Fraction(1, 2)) == 4 and GF(7).coerce(-1) == 6


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), st.data())
def test_qq_eliminations_are_canonical_and_match_the_fraction_reference(rows, data):
    m = from_dense(rows, QQ)
    _assert_canonical_equal(rank_kernel(m), _ref_rank_kernel(rows, FRACTION_QQ))
    b = _map(data.draw(st.lists(ENTRY, min_size=m.nrows, max_size=m.nrows)), QQ)
    _assert_canonical_equal(solve(m, b), _ref_solve(rows, b, FRACTION_QQ))
    span = VectorSpan(QQ)
    for row in rows:
        span.add(_map(row, QQ))
    echelon, pivots = _ref_echelon(rows, FRACTION_QQ)
    rows_read = [span._rows[p] for p in span.pivots]
    _assert_canonical_equal(rows_read, [{c: x for c, x in enumerate(row) if x != 0} for row in echelon])
    n = min(m.nrows, m.ncols)
    square = [row[:n] for row in rows[:n]]
    _assert_canonical_equal(inverse_rows([_map(row, QQ) for row in square]), _ref_inverse(square, FRACTION_QQ))


def _fraction_entries(entries) -> dict:
    return {k: Fraction(v) for k, v in entries.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_qq_matrix_operations_are_canonical_and_match_the_fraction_reference(data):
    nr, k, nc = (data.draw(st.integers(1, 4)) for _ in range(3))

    def entries(nrows, ncols):
        keys = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        return data.draw(st.dictionaries(keys, ENTRY, max_size=nrows * ncols))

    ea, eb, ec = entries(nr, k), entries(nr, k), entries(k, nc)
    a, b, c = (SparseMatrix(*shape, QQ, e) for shape, e in (((nr, k), ea), ((nr, k), eb), ((k, nc), ec)))
    fa, fb, fc = _fraction_entries(ea), _fraction_entries(eb), _fraction_entries(ec)

    def nonzero(d):
        return {key: v for key, v in d.items() if v != 0}

    total, diff = dict(fa), dict(fa)
    for key, y in fb.items():
        total[key] = total.get(key, Fraction(0)) + y
        diff[key] = diff.get(key, Fraction(0)) - y
    product = {}
    for (r, j), x in fa.items():
        for (jj, col), y in fc.items():
            if j == jj:
                product[(r, col)] = product.get((r, col), Fraction(0)) + x * y
    scalar = data.draw(ENTRY)
    _assert_canonical_equal((a + b).entries, nonzero(total))
    _assert_canonical_equal((a - b).entries, nonzero(diff))
    _assert_canonical_equal((a @ c).entries, nonzero(product))
    _assert_canonical_equal(a.scale(scalar).entries, nonzero({key: x * scalar for key, x in fa.items()}))


def _reduced(x, ring):
    """The Fraction x in ring, by hand: its residue mod p over GF(p), else
    x itself (compared by value with the canonical form)."""
    if ring.kind == "GF":
        return x.numerator * pow(x.denominator, -1, ring.p) % ring.p
    return x


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3), GF(17)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_operations_match_a_dense_reference_reduced_in_every_ring(ring, data):
    # the reference computes densely on Fractions and reduces at the end;
    # the matrices compute on the ring's elements and reduce in _closed
    entry = st.integers(-9, 9) if ring == ZZ else ENTRY
    nr, k, nc = (data.draw(st.integers(1, 4)) for _ in range(3))

    def dense(nrows, ncols):
        return [[Fraction(data.draw(entry)) for _ in range(ncols)] for _ in range(nrows)]

    da, db, dc = dense(nr, k), dense(nr, k), dense(k, nc)
    a, b, c = (SparseMatrix(len(d), len(d[0]), ring, {(i, j): x for i, row in enumerate(d) for j, x in enumerate(row)})
               for d in (da, db, dc))
    scalar = Fraction(data.draw(entry))
    vec = {j: x for j in range(k) if (x := Fraction(data.draw(entry)))}

    def want(rows):
        return {(i, j): y for i, row in enumerate(rows) for j, x in enumerate(row) if (y := _reduced(x, ring))}

    def check(result, reference):
        # canonical and equal over QQ and ZZ (a Fraction reference), equal
        # residues over GF(p); off QQ every value is an int
        _assert_canonical_equal(result, reference)
        assert ring == QQ or all(type(v) is int for v in result.values())

    check((a + b).entries, want([[x + y for x, y in zip(u, v)] for u, v in zip(da, db)]))
    check((a - b).entries, want([[x - y for x, y in zip(u, v)] for u, v in zip(da, db)]))
    check((-a).entries, want([[-x for x in u] for u in da]))
    check(a.scale(scalar).entries, want([[x * scalar for x in u] for u in da]))
    check((a @ c).entries, want([[sum((u[t] * dc[t][j] for t in range(k)), Fraction(0)) for j in range(nc)]
                                 for u in da]))
    product = [sum((x * vec.get(j, 0) for j, x in enumerate(u)), Fraction(0)) for u in da]
    applied = a.apply(vec)
    assert list(applied) == sorted(applied)
    check(applied, {i: y for i, x in enumerate(product) if (y := _reduced(x, ring))})
    check({(i, j): a[i, j] for i in range(nr) for j in range(k)},
          {(i, j): _reduced(x, ring) for i, row in enumerate(da) for j, x in enumerate(row)})


def test_a_ring_is_a_tag_with_coerce_and_div():
    for name in ("zero", "one", "add", "sub", "neg", "mul"):
        assert not hasattr(Ring, name), name
    methods = {name for name, v in vars(Ring).items()
               if not name.startswith("_") and (callable(v) or isinstance(v, property))}
    assert methods == {"is_field", "coerce", "div"}


def test_integer_maps_put_qq_maps_over_one_denominator():
    maps = [{3: Fraction(1, 2), 0: 0, 1: 5}, {}, {2: Fraction(-2, 3)}]
    den, ints = integer_maps(maps)
    assert den == 6 and ints == [{3: 3, 0: 0, 1: 30}, {}, {2: -4}]
    assert [list(m) for m in ints] == [list(m) for m in maps]   # zeros kept, key order kept
    assert all(type(n) is int for m in ints for n in m.values())
    assert integer_maps([]) == (1, []) and integer_maps([{0: 2}]) == (1, [{0: 2}])


def _odd_prime_by_trial_division(n: int, small_primes: list) -> bool:
    return n >= 3 and n % 2 == 1 and all(n % q for q in small_primes if q * q <= n)


def test_the_prime_test_agrees_with_trial_division_below_200000():
    bound = 200000
    small = [q for q in range(2, 448) if all(q % d for d in range(2, q))]
    assert small[-1] ** 2 < bound < 449 ** 2
    assert [n for n in range(bound) if is_odd_prime(n)] == \
        [n for n in range(bound) if _odd_prime_by_trial_division(n, small)]


@pytest.mark.parametrize("n", [
    3215031751,            # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,   # strong pseudoprime to every prime base up to 23
    PRIME_BOUND,           # strong pseudoprime to every prime base up to 37
    1000000000000000003 * 1000000000039,
])
def test_the_prime_test_rejects_strong_pseudoprimes(n):
    assert not is_odd_prime(n)
    with pytest.raises(ValueError, match="odd prime"):
        GF(n)


def test_large_primes_are_fields_and_the_bound_is_refused():
    for p in (1000003, 1000000000039, 1000000000000000003):
        assert is_odd_prime(p) and GF(p).p == p
    assert not is_odd_prime(PRIME_BOUND + 2)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        GF(PRIME_BOUND + 2)


def test_gf_builds_one_ring_per_prime_and_refuses_every_bad_modulus(monkeypatch):
    from orbitforge import rings

    tested = []
    prime_test = rings.is_odd_prime
    monkeypatch.setattr(rings, "is_odd_prime", lambda n: tested.append(n) or prime_test(n))
    assert GF(10007) is GF(10007) is GF(10007)
    assert tested.count(10007) <= 1   # none if an earlier test built GF(10007)
    assert GF(10007) == Ring("GF", 10007) and GF(10007).p == 10007
    for bad in (9, 1, 2, -3, PRIME_BOUND + 2):
        for _ in range(2):
            with pytest.raises(ValueError, match="odd prime"):
                GF(bad)
    assert all(tested.count(bad) == 2 for bad in (9, 1, 2, -3, PRIME_BOUND + 2))
