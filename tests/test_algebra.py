"""Matrix realizations, Chevalley bases, root data and the Killing form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.rings import QQ, ZZ, GF
from orbitforge.linalg import SparseMatrix, commutator, inverse_rows, row_span
from orbitforge.algebra import ClassicalAlgebra, build_algebra
from test_linalg import _map
from test_slices import _count_matrices, _trace, _unit_over_z_half


def test_dimensions():
    assert build_algebra(4, -1).dim == 10
    assert build_algebra(5, 1).dim == 10
    assert build_algebra(8, 1).dim == 28
    assert build_algebra(6, -1).dim == 21
    with pytest.raises(ValueError):
        build_algebra(5, -1)


def test_so5_basis_contains_standard_element():
    g = build_algebra(5, 1)
    standard = g.unit(1, 0).scale(2) - g.unit(0, -1)  # 2e_{k,0} - e_{0,-k} for k = 1
    coords = g.coordinates(standard)
    assert sum(1 for c in coords.values() if c != 0) == 1


def _form(g):
    """The Gram J of the form: (v_i, v_{-i}) = 1, (v_{-i}, v_i) = eps and
    (v_0, v_0) = 2."""
    ent = {}
    for i in range(1, g.h + 1):
        ent[(g.pos[i], g.pos[-i])] = 1
        ent[(g.pos[-i], g.pos[i])] = g.eps
    if g.N % 2 == 1:
        ent[(g.pos[0], g.pos[0])] = 2
    return SparseMatrix(g.N, g.N, QQ, ent)


def _sigma(g, x):
    """The product reference sigma(x) = -J^{-1} x^T J."""
    J = _form(g)
    inverse = {(r, c): v for r, row in enumerate(inverse_rows(J.rows())) for c, v in row.items()}
    return -(SparseMatrix(g.N, g.N, QQ, inverse) @ x.transpose() @ J)


def test_sigma_is_an_involution():
    for n, eps in [(4, -1), (5, 1), (6, 1)]:
        g = build_algebra(n, eps)
        x = g.unit(1, -2) + g.unit(2, 1).scale(3)
        assert _sigma(g, _sigma(g, x)) == x


def test_sigma_equivariance():
    g = build_algebra(4, -1)
    x, y = g.unit(1, -2), g.unit(2, 1)
    assert _sigma(g, commutator(x, y)) == commutator(_sigma(g, x), _sigma(g, y))


def test_basis_matrices_are_sigma_fixed():
    for n, eps in [(4, -1), (5, 1), (7, 1), (6, -1)]:
        g = build_algebra(n, eps)
        for b in g.basis:
            assert _sigma(g, b) == b


def test_form_invariance():
    for n, eps in [(4, -1), (5, 1)]:
        g = build_algebra(n, eps)
        J = _form(g)
        for b in g.basis:
            # (Xu, v) + (u, Xv) = 0 as the matrix identity X^T J + J X = 0
            assert (b.transpose() @ J) + (J @ b) == SparseMatrix(n, n, QQ)


def test_root_data_sp4_so5():
    for n, eps in [(4, -1), (5, 1)]:
        g = build_algebra(n, eps)
        rd = g.root_data()
        assert len(rd["roots"]) == 8
        assert len(rd["simple_roots"]) == 2
        assert rd["d"] == 2
        assert len(rd["positive_roots"]) == (g.dim - g.h) // 2


def test_root_space_decomposition_by_bracketing():
    # every labeled root vector is a simultaneous eigenvector of the diagonal
    # torus with exactly its labeled weight
    for n, eps in [(4, -1), (5, 1), (8, 1), (6, -1)]:
        g = build_algebra(n, eps)
        diag = [g.unit(i, i) - g.unit(-i, -i) for i in range(1, g.h + 1)]
        for k, lab in enumerate(g.labels):
            if lab[0] != "e":
                continue
            w = lab[1]
            for i, h in enumerate(diag):
                assert commutator(h, g.basis[k]) == g.basis[k].scale(w[i]), (n, eps, w)


def test_positive_root_count_sweep():
    for n, eps in [(4, -1), (6, -1), (8, -1), (5, 1), (7, 1), (8, 1), (9, 1)]:
        g = build_algebra(n, eps)
        assert len(g.root_data()["positive_roots"]) == (g.dim - g.h) // 2


def test_bracket_closure_integer_constants():
    for n, eps in [(4, -1), (5, 1), (6, 1)]:
        g = build_algebra(n, eps)
        for a in g.basis:
            for b in g.basis:
                coords = g.coordinates(commutator(a, b))
                assert all(Fraction(c).denominator == 1 for c in coords.values())


SMALL_ALGEBRAS = [(n, eps) for n in range(2, 9) for eps in (1, -1) if eps == 1 or n % 2 == 0]
RINGS = [QQ, ZZ, GF(3), GF(7)]


def _as_map(dense) -> dict:
    """The {index: scalar} map of the nonzero entries of a dense coordinate
    vector, each scalar left as it is."""
    return {k: c for k, c in enumerate(dense) if c != 0}


def _bracket(g, x, y) -> dict:
    """The Chevalley coordinates of [x, y] over QQ, for x and y given as
    {index: scalar} maps: sparse_bracket on the maps coerced into QQ."""
    return g.sparse_bracket(*({k: QQ.coerce(c) for k, c in v.items()} for v in (x, y)))


def _apply(row: dict, x: dict):
    """sum_k row[k] x_k, the functional row (a map) at the map x."""
    return sum(row.get(k, 0) * c for k, c in x.items())


def _holds(ring, coords) -> bool:
    """Every coordinate has a value in ring (its denominator is a unit)."""
    dens = [Fraction(c).denominator for c in coords]
    if ring.kind == "QQ":
        return True
    if ring.kind == "ZZ":
        return all(d == 1 for d in dens)
    return all(d % ring.p for d in dens)


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_bracket_and_ad_match_the_matrix_reference(n, eps, data):
    g = build_algebra(n, eps)
    # int coordinates; Fraction coordinates over one denominator or over
    # mixed denominators 1, 2, 3, 6; or ints and Fractions mixed in one vector
    kind = data.draw(st.sampled_from(["int", "fraction", "mixed"]))
    dens = (1,) if kind == "int" else data.draw(st.sampled_from([(1,), (2,), (3,), (7,), (1, 2, 3, 6)]))
    coords = st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from(dens)), min_size=g.dim, max_size=g.dim)

    def draw_vector():
        cs = data.draw(coords)
        if kind == "int":
            return [int(c) for c in cs]
        if kind == "fraction":
            return cs
        as_int = data.draw(st.lists(st.booleans(), min_size=g.dim, max_size=g.dim))
        return [int(c) if f and c.denominator == 1 else c for c, f in zip(cs, as_int)]

    xd, yd = draw_vector(), draw_vector()
    x, y = _as_map(xd), _as_map(yd)
    assert _bracket(g, x, y) == g.coordinates(commutator(g.from_coordinates(x), g.from_coordinates(y)))
    for ring in RINGS:
        if not _holds(ring, xd + yd):
            # coordinates are coerced first: a denominator the ring lacks raises
            with pytest.raises(ValueError):
                g.sparse_bracket(_map(xd, ring), _map(yd, ring), ring)
            if not _holds(ring, xd):
                with pytest.raises(ValueError):
                    g.ad(x, ring)
            continue
        xm = g.from_coordinates(x, ring)
        want = g.coordinates(commutator(xm, g.from_coordinates(y, ring)))
        assert g.sparse_bracket(_map(xd, ring), _map(yd, ring), ring) == {
            k: v for k, v in want.items() if v != 0}
        reference = {}
        for j, b in enumerate(g.basis):
            for i, v in g.coordinates(commutator(xm, b.change_ring(ring))).items():
                if v != 0:
                    reference[(i, j)] = v
        adx = g.ad(x, ring)
        assert adx == SparseMatrix(g.dim, g.dim, ring, reference)
        # canonical scalars: ints, and over QQ a Fraction only off the integers
        assert all(type(v) is int or (ring.kind == "QQ" and type(v) is Fraction and v.denominator > 1)
                   for v in adx.entries.values())
        if ring.kind == "GF":
            assert all(0 < v < ring.p for v in adx.entries.values())


def test_ad_raises_on_a_coordinate_the_ring_cannot_hold():
    g = build_algebra(4, -1)
    for k in (0, g.dim - 1):   # a Cartan element and a root vector
        for ring, c in [(ZZ, Fraction(1, 2)), (GF(3), Fraction(2, 3))]:
            with pytest.raises(ValueError):
                g.ad({k: c}, ring)
        x = {k: Fraction(4, 2)}   # integral, though not an int
        assert g.ad(x, ZZ) == g.ad({k: 2}, ZZ)


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(7)])
def test_from_coordinates_builds_one_matrix(monkeypatch, ring):
    g = build_algebra(6, -1)
    cases = [[(k % 5) - 2 if k < nonzero else 0 for k in range(g.dim)] for nonzero in (0, 1, 7, g.dim)]
    wants = []
    for coords in cases:
        want = SparseMatrix(g.N, g.N, ring)
        for b, c in zip(g.basis, coords):
            want = want + b.change_ring(ring).scale(c)
        wants.append(want)
    made = _count_matrices(monkeypatch)
    for coords, want in zip(cases, wants):
        made.clear()
        assert g.from_coordinates(_as_map(coords), ring) == want and len(made) == 1
    if ring != QQ:
        with pytest.raises(ValueError):
            g.from_coordinates({0: Fraction(1, 2 if ring == ZZ else 7)}, ring)


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
def test_killing_form_makes_no_matrix_products(monkeypatch, n, eps):
    g = ClassicalAlgebra(n, eps)  # fresh, so killing_form builds its Gram here
    calls = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    g.killing_form()
    assert not calls


def _one_order_reference(g) -> list:
    """The structure table as held for i < j alone, from matrix commutators:
    row i maps j > i to the nonzero Chevalley coordinates of [B_i, B_j]."""
    table = [{} for _ in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coords = g.coordinates(commutator(g.basis[i], g.basis[j]))
            terms = tuple((k, int(c)) for k, c in coords.items() if c != 0)
            if terms:
                table[i][j] = terms
    return table


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
def test_structure_table_is_antisymmetric_and_extends_the_one_order_table(n, eps):
    g = build_algebra(n, eps)
    table = g.structure
    assert [{j: t for j, t in row.items() if j > i} for i, row in enumerate(table)] == _one_order_reference(g)
    for i, row in enumerate(table):
        assert i not in row
        for j, terms in row.items():
            assert table[j][i] == tuple((k, -c) for k, c in terms)
            assert all(type(c) is int and c != 0 for _, c in terms)


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_kappa_matches_the_trace_of_the_product(n, eps, data):
    g = build_algebra(n, eps)
    coords = st.lists(st.integers(-3, 3), min_size=g.dim, max_size=g.dim)
    x, y = data.draw(coords), data.draw(coords)
    if data.draw(st.booleans()):
        s = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.sampled_from([1, 2, 3])))
        x = [s * a for a in x]
    x, y = _as_map(x), _as_map(y)
    row = g.kappa_row(x)
    assert type(row) is dict and list(row) == sorted(row) and set(row) <= set(range(g.dim))
    assert all(v != 0 and (type(v) is int or (type(v) is Fraction and v.denominator > 1)) for v in row.values())
    assert _apply(row, y) == _trace_kappa(g, g.from_coordinates(x), g.from_coordinates(y))
    for k, b in enumerate(g.basis):
        assert row.get(k, 0) == _trace_kappa(g, g.from_coordinates(x), b)


def _trace_kappa(g, x, y):
    """The matrix reference: kappa(x, y) = c trace(x y)."""
    return g.killing_form()["trace_constant"] * _trace(x @ y)


def test_structure_certification_rejects_a_corrupted_entry(monkeypatch):
    g = ClassicalAlgebra(5, 1)  # fresh: the cached instance keeps its certified table
    decompose = g._read_coords
    seen = []

    def corrupted(entries, ring):
        coords = decompose(entries, ring)
        seen.append(entries)
        if len(seen) == 3:  # one entry off by one
            k = min(coords)
            coords[k] += 1
        return coords

    monkeypatch.setattr(g, "_read_coords", corrupted)
    with pytest.raises(AssertionError, match="reconstruct"):
        g.structure


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
def test_root_at_names_the_root_vector_at_each_position(n, eps):
    # keyed by the basis entries' own position tuples: no key is a copy
    g = build_algebra(n, eps)
    keys = {id(rc) for rc in g._root_at}
    roots = [k for k, label in enumerate(g.labels) if label[0] == "e"]
    assert len(g._root_at) == sum(len(g.basis[k].entries) for k in roots)
    for k in roots:
        for rc in g.basis[k].entries:
            assert g._root_at[rc] == k and id(rc) in keys


def test_two_root_vectors_on_one_position_are_refused():
    # the first root vector also takes the last position of the second; each
    # still has a position of its own, yet the table refuses the basis
    g = ClassicalAlgebra(5, 1)  # fresh: the planted basis stays here
    first, second = [k for k, label in enumerate(g.labels) if label[0] == "e"][:2]
    shared = list(g.basis[second].entries)[-1]
    g.basis[first] = SparseMatrix(g.N, g.N, QQ, {**g.basis[first].entries, shared: 1})
    with pytest.raises(AssertionError, match="share the matrix position"):
        g._build_coordinate_map()


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS + [(16, -1)])
def test_equal_structure_expansions_are_one_object(n, eps):
    # the table holds each distinct expansion once: equal term tuples are
    # one object, and so is every equal negation in the other order
    table = build_algebra(n, eps).structure
    seen = {}
    for i, row in enumerate(table):
        for j, terms in row.items():
            assert seen.setdefault(terms, terms) is terms
            neg = table[j][i]
            assert neg == tuple((k, -c) for k, c in terms)
            assert seen.setdefault(neg, neg) is neg


def test_killing_short_root_value_sp4():
    g = build_algebra(4, -1)
    rd = g.root_data()
    kf = g.killing_form()
    short = [w for w in rd["positive_roots"] if rd["norms"][w] == 2][0]
    k_short = [i for i, lab in enumerate(g.labels) if lab == ("e", short)][0]
    k_neg = [i for i, lab in enumerate(g.labels) if lab == ("e", tuple(-x for x in short))][0]
    assert kf["gram"][(k_short, k_neg)] == 2  # 2 d / (alpha|alpha) = 2*2/2


def test_killing_cartan_orthogonal_to_root_vectors():
    g = build_algebra(4, -1)
    kf = g.killing_form()
    for i, lab in enumerate(g.labels):
        if lab[0] != "h":
            continue
        for j, lab2 in enumerate(g.labels):
            if lab2[0] == "e":
                assert kf["gram"][(i, j)] == 0


def test_killing_invariance_on_basis_triples():
    # kappa([x, y], z) = kappa(x, [y, z]) on the Chevalley coordinates, and
    # for the matrix reference
    for n, eps in [(4, -1), (5, 1)]:
        g = build_algebra(n, eps)
        units = [{k: 1} for k in range(g.dim)]
        for x, xm in zip(units, g.basis):
            row = g.kappa_row(x)
            for y, ym in zip(units, g.basis):
                bxy = g.kappa_row(_bracket(g, x, y))
                for z, zm in zip(units, g.basis):
                    lhs = _apply(bxy, z)
                    assert lhs == _apply(row, _bracket(g, y, z))
                    assert lhs == _trace_kappa(g, commutator(xm, ym), zm)


def test_killing_gram_determinant_two_power():
    for n, eps in [(4, -1), (5, 1), (6, -1), (8, 1)]:
        g = build_algebra(n, eps)
        assert _unit_over_z_half(g.killing_form()["gram"]), (n, eps)


def test_killing_nondegenerate_mod_p():
    for n, eps in [(4, -1), (5, 1)]:
        g = build_algebra(n, eps)
        gram = g.killing_form()["gram"]
        for p in (3, 5, 7):
            assert row_span(gram.change_ring(GF(p))).rank == g.dim


def test_trace_constant_recorded():
    assert build_algebra(4, -1).killing_form()["trace_constant"] == 1
    assert build_algebra(5, 1).killing_form()["trace_constant"] == Fraction(1, 2)


def test_type_a_like_flags():
    assert build_algebra(2, 1).type_a_like
    assert build_algebra(4, 1).type_a_like
    assert build_algebra(6, 1).type_a_like
    assert build_algebra(2, -1).type_a_like
    assert not build_algebra(5, 1).type_a_like
    assert not build_algebra(4, -1).type_a_like


def _canonical(x) -> bool:
    """The QQ scalar form: an int, or a Fraction off the integers."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@pytest.mark.parametrize("n, eps", SMALL_ALGEBRAS)
def test_qq_results_hold_canonical_scalars(n, eps):
    g = build_algebra(n, eps)
    # integral Fractions (4/2, -3/3) and halves, on every coordinate
    x = _as_map([Fraction(k % 5 - 2, 1 + k % 2) * (2 if k % 3 else 1) for k in range(g.dim)])
    y = _as_map([Fraction(2 - k % 4, 1 + (k + 1) % 2) for k in range(g.dim)])
    xm = g.from_coordinates(x)
    assert all(_canonical(v) for v in xm.entries.values())
    for coords in (g.coordinates(xm).values(), _bracket(g, x, y).values(), g.kappa_row(x).values()):
        assert all(_canonical(c) for c in coords)
    assert all(_canonical(v) for v in g.ad(x).entries.values())
    kf, rd = g.killing_form(), g.root_data()
    assert all(_canonical(v) for v in kf["gram"].entries.values())
    assert _canonical(kf["trace_constant"]) and _canonical(rd["d"])
    assert all(_canonical(v) for v in rd["norms"].values())
