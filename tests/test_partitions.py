"""Partitions, involutions, pyramids and the rigidity predicates."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.partitions import (
    Partition,
    validate_partition,
    is_very_even,
    admissible_partitions,
    pairing_involution,
    check_involution,
    self_paired,
    build_pyramid,
    is_almost_rigid,
    is_rigid,
)


def test_validate_examples():
    assert validate_partition(Partition((5, 5, 4)), -1)
    assert validate_partition(Partition((3, 1)), 1)
    assert not validate_partition(Partition((2,)), 1)
    assert not validate_partition(Partition((3,)), -1)  # odd total for sp


def test_parse_reads_comma_separated_parts_and_refuses_an_empty_one():
    assert Partition.parse("3, 1,1") == Partition((3, 1, 1))
    assert Partition.parse("") == Partition.parse(" ") == Partition(())
    for text in ("3,,1", "3,1,", ",3,1", ","):
        with pytest.raises(ValueError):
            Partition.parse(text)


def test_very_even():
    assert is_very_even(Partition((2, 2)), 1)
    assert is_very_even(Partition((4, 4, 2, 2)), 1)
    assert not is_very_even(Partition((2, 2)), -1)
    assert not is_very_even(Partition((3, 1)), 1)


def brute_force_involutions(lam, eps):
    """All involutions satisfying conditions (1), (3) and the parity rule;
    the implementation must return one of them."""
    n = lam.n
    out = []
    for perm in itertools.permutations(range(n)):
        if any(perm[perm[i]] != i for i in range(n)):
            continue
        if any(lam.parts[perm[i]] != lam.parts[i] for i in range(n)):
            continue
        if any(perm[i] not in (i - 1, i, i + 1) for i in range(n)):
            continue
        if any((perm[i] == i) != self_paired(lam.parts[i], eps) for i in range(n)):
            continue
        out.append(perm)
    return out


def test_involution_examples_against_exhaustive_search():
    cases = [
        (Partition((2, 1, 1)), -1, (0, 2, 1)),
        (Partition((3, 1)), 1, (0, 1)),
        (Partition((5, 5, 4)), -1, (1, 0, 2)),
    ]
    for lam, eps, want in cases:
        inv = pairing_involution(lam, eps)
        assert inv == want
        assert inv in brute_force_involutions(lam, eps)


def test_involution_fixed_point_rule_forced_for_31():
    # with the opposite fixed-point sign no involution exists for (3,1)
    lam = Partition((3, 1))
    candidates = []
    for perm in itertools.permutations(range(2)):
        if all(perm[perm[i]] == i and lam.parts[perm[i]] == lam.parts[i] for i in range(2)):
            if all((perm[i] == i) == (1 * (-1) ** lam.parts[i] == 1) for i in range(2)):
                candidates.append(perm)
    assert candidates == []  # the flipped convention has no solutions
    assert brute_force_involutions(lam, 1) == [(0, 1)]


def test_involution_invariants_sweep():
    for n in range(1, 13):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                check_involution(lam, eps, pairing_involution(lam, eps))


GOLDEN = {
    ((5, 5, 4), -1): {1: (1, -4), 2: (1, -2), 3: (1, 0), 4: (1, 2), 5: (1, 4),
                      6: (3, 1), 7: (3, 3)},
    ((4, 3, 3, 2), -1): {1: (0, 1), 2: (0, 3), 3: (2, -2), 4: (2, 0), 5: (2, 2),
                         6: (4, 1)},
    ((4, 4, 3, 1, 1), 1): {0: (0, 0), 1: (0, 2), 2: (2, -3), 3: (2, -1),
                           4: (2, 1), 5: (2, 3), 6: (4, 0)},
    ((5, 2, 2, 1), 1): {1: (1, 0), 2: (1, 2), 3: (1, 4), 4: (3, -1), 5: (3, 1)},
}


def test_golden_pyramids():
    for (parts, eps), want in GOLDEN.items():
        pyr = build_pyramid(Partition(parts), eps)
        for idx, (row, col) in want.items():
            assert (pyr.row[idx], pyr.col[idx]) == (row, col), (parts, idx)


def test_golden_pyramid_skew_rows():
    pyr = build_pyramid(Partition((5, 5, 4)), -1)
    assert pyr.skew_rows == {3, -3}
    pyr = build_pyramid(Partition((5, 2, 2, 1)), 1)
    assert pyr.skew_rows == {1, -1}
    assert sorted(pyr.crossed) == [(-1, 2), (-1, 4), (1, -4), (1, -2)]


def test_single_box_pyramid():
    pyr = build_pyramid(Partition((1,)), 1)
    assert pyr.row == {0: 0} and pyr.col == {0: 0}


def test_pyramid_symmetry_sweep():
    for n in range(1, 13):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                pyr = build_pyramid(lam, eps)
                assert len(pyr.row) == n
                for i in pyr.boxes():
                    assert pyr.row[-i] == -pyr.row[i]
                    assert pyr.col[-i] == -pyr.col[i]
                # rows are arithmetic progressions of step 2 (with crosses)
                by_row = {}
                for i in pyr.boxes():
                    by_row.setdefault(pyr.row[i], set()).add(pyr.col[i])
                for r, cols in by_row.items():
                    cols = cols | {c for rr, c in pyr.crossed if rr == r}
                    cols = sorted(cols)
                    assert all(b - a == 2 for a, b in zip(cols, cols[1:])), (lam, r)


def test_pyramid_columns_match_jordan_strings():
    # the multiset of columns must equal the union of the Dynkin strings
    for n in range(2, 13):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                pyr = build_pyramid(lam, eps)
                cols = sorted(pyr.col.values())
                want = sorted(c for p in lam.parts for c in range(1 - p, p, 2))
                assert cols == want, lam


def test_almost_rigid_examples():
    assert is_almost_rigid(Partition((2, 2, 1, 1)))
    assert not is_almost_rigid(Partition((3, 1)))
    assert not is_almost_rigid(Partition((5, 5, 4)))
    assert not is_almost_rigid(Partition((2, 2)))  # final step to 0 is 2


def test_rigid_examples():
    assert is_rigid(Partition((2, 1, 1)), -1)
    assert not is_rigid(Partition((2, 2)), -1)
    assert is_rigid(Partition((1, 1, 1, 1)), -1)
    assert is_rigid(Partition((1,) * 5), 1)
    assert not is_rigid(Partition((2, 2, 1, 1)), -1)
    assert is_rigid(Partition((2, 2, 2, 1, 1)), -1)
    assert is_rigid(Partition((2, 2, 1, 1, 1, 1)), 1)
    assert is_rigid(Partition((3, 2, 2, 1)), 1)


def test_rigid_implies_almost_rigid():
    for n in range(2, 13):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                if is_rigid(lam, eps):
                    assert is_almost_rigid(lam)


@st.composite
def partitions(draw):
    parts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    return Partition(tuple(sorted(parts, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(partitions(), st.sampled_from([1, -1]))
def test_conjugate_is_involutive(lam, eps):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@settings(max_examples=200, deadline=None)
@given(partitions(), st.sampled_from([1, -1]))
def test_involution_exists_iff_admissible(lam, eps):
    if validate_partition(lam, eps):
        check_involution(lam, eps, pairing_involution(lam, eps))
    else:
        with pytest.raises((ValueError, AssertionError)):
            pairing_involution(lam, eps)
