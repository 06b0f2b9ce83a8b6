"""Partitions admissible for so_N / sp_N, the block-pairing involution,
Dynkin pyramids and the (almost) rigid predicates.

Conventions.  eps = +1 selects the orthogonal family (even parts must have
even multiplicity), eps = -1 the symplectic one (odd parts must have even
multiplicity).  The involution fixes exactly the parts m with
eps * (-1)^m = -1; the opposite fixed-point convention is inconsistent with
existence already for (3,1) with eps = +1, where both odd parts are forced
to be self-paired (a block carries a nondegenerate restriction of the form
precisely when eps * (-1)^m = -1).
"""

from __future__ import annotations

from functools import lru_cache

from .rings import Frozen


class Partition(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """The parts of comma-separated text; the empty text is the empty
        partition, and an empty part raises ValueError."""
        text = text.replace(" ", "")
        return cls(tuple(int(t) for t in text.split(",")) if text else ())

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        out = tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        return Partition(out)

    def multiplicity(self, m: int) -> int:
        return sum(1 for p in self.parts if p == m)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def validate_partition(lam: Partition, eps: int) -> bool:
    """Membership test for P_eps(N)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if eps == -1 and lam.size % 2 != 0:
        return False
    bad_parity = 0 if eps == 1 else 1  # parts of this parity need even multiplicity
    for m in set(lam.parts):
        if m % 2 == bad_parity and lam.multiplicity(m) % 2 != 0:
            return False
    return True


def is_very_even(lam: Partition, eps: int) -> bool:
    """eps = +1, all parts even (multiplicities are then forced even)."""
    return eps == 1 and bool(lam.parts) and all(p % 2 == 0 for p in lam.parts)


@lru_cache(maxsize=None)
def _partitions_of(n: int, bound: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, bound), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def all_partitions(n: int):
    """All partitions of n, largest-first lexicographic order."""
    return [Partition(p) for p in _partitions_of(n, n)]


def admissible_partitions(n: int, eps: int):
    return [lam for lam in all_partitions(n) if validate_partition(lam, eps)]


def self_paired(m: int, eps: int) -> bool:
    """Part sizes forced to be self-paired: eps * (-1)^m == -1."""
    return eps * (-1) ** m == -1


def pairing_involution(lam: Partition, eps: int) -> tuple:
    """The involution i -> i' on 1..n (returned 0-indexed as a tuple).

    Parts m with eps(-1)^m = -1 are fixed; the remaining equal parts are
    paired adjacently in increasing index order.
    """
    if not validate_partition(lam, eps):
        raise ValueError(f"{lam} is not admissible for eps={eps}")
    inv = list(range(lam.n))
    i = 0
    while i < lam.n:
        m = lam.parts[i]
        if self_paired(m, eps):
            i += 1
            continue
        if i + 1 >= lam.n or lam.parts[i + 1] != m:
            raise AssertionError(f"unpaired part {m} in {lam} with eps={eps}")
        inv[i], inv[i + 1] = i + 1, i
        i += 2
    return tuple(inv)


def check_involution(lam: Partition, eps: int, inv: tuple) -> None:
    """Exact check of the involution invariants; raises on failure."""
    for i in range(lam.n):
        if inv[inv[i]] != i:
            raise AssertionError("not an involution")
        if lam.parts[inv[i]] != lam.parts[i]:
            raise AssertionError("involution does not preserve part sizes")
        if inv[i] not in (i - 1, i, i + 1):
            raise AssertionError("involution moves an index by more than 1")
        if (inv[i] == i) != self_paired(lam.parts[i], eps):
            raise AssertionError("fixed points disagree with the parity rule")


# -- Dynkin pyramids ---------------------------------------------------------


class DynkinPyramid:
    """Box diagram: box index -> (row, col), plus crossed boxes and skew rows.

    Box indices are {0} ∪ {±1..±⌊N/2⌋} with 0 present only for N odd; the
    mirror symmetry row(-i) = -row(i), col(-i) = -col(i) holds throughout.
    """

    __slots__ = ("row", "col", "skew_rows", "crossed")

    def __init__(self):
        self.row = {}
        self.col = {}
        self.skew_rows = set()
        self.crossed = []   # (row, col) of crossed boxes

    def boxes(self):
        return sorted(self.row)

    def to_json(self) -> dict:
        return {
            "boxes": [{"idx": i, "row": self.row[i], "col": self.col[i]} for i in self.boxes()],
            "skew_rows": sorted(self.skew_rows),
            "crossed": [list(rc) for rc in sorted(self.crossed)],
        }


def _layout_units(lam: Partition, eps: int):
    """Units to be stacked into rows: ('pair', m) two full mirror rows,
    ('selfskew', m) a split even part (sp), ('skewpair', ml, mm) two odd
    leftover parts sharing a skew-row pair (so), ('central', m) a single
    centered row (so)."""
    sizes = sorted(set(lam.parts), reverse=True)
    units = []
    if eps == -1:
        for m in sizes:
            mult = lam.multiplicity(m)
            if m % 2 == 1:
                units += [("pair", m)] * (mult // 2)
            else:
                units += [("selfskew", m)] * mult
    else:
        leftovers = []
        for m in sizes:
            mult = lam.multiplicity(m)
            units += [("pair", m)] * (mult // 2)
            if m % 2 == 1 and mult % 2 == 1:
                leftovers.append(m)
        # leftovers are distinct odd sizes, descending; pair consecutively,
        # the last one (if the count is odd) takes the central row
        i = 0
        while i + 1 < len(leftovers):
            units.append(("skewpair", leftovers[i], leftovers[i + 1]))
            i += 2
        if i < len(leftovers):
            units.append(("central", leftovers[i]))
    units.sort(key=lambda u: (-u[1], u[0]))
    return units


def build_pyramid(lam: Partition, eps: int) -> DynkinPyramid:
    if not validate_partition(lam, eps):
        raise ValueError(f"{lam} is not admissible for eps={eps}")
    units = _layout_units(lam, eps)

    central_at = None
    for i, u in enumerate(units):
        if u[0] == "central":
            central_at = i
    if central_at is None and eps == -1 and units and units[0][0] == "selfskew":
        # the dominant split part merges its two half-rows into row 0
        central_at = 0
    central = units[central_at] if central_at is not None else None
    stacked = [u for i, u in enumerate(units) if i != central_at]

    # (unit, upper_row) placements
    placements = []
    if central is not None:
        placements.append((central, 0))
        rows = [2 * (i + 1) for i in range(len(stacked))]
    else:
        rows = [2 * i + 1 for i in range(len(stacked))]
    placements += list(zip(stacked, rows))

    pyr = DynkinPyramid()
    upper_boxes = []  # (|row| asc, col asc) determines the numbering

    for unit, r in placements:
        kind = unit[0]
        if kind == "pair":
            m = unit[1]
            cols = range(1 - m, m, 2)
            upper_boxes += [(r, c) for c in cols]
        elif kind == "central":
            m = unit[1]
            upper_boxes += [(0, c) for c in range(1 - m, m, 2)]
        elif kind == "selfskew":
            m = unit[1]
            if r == 0:
                upper_boxes += [(0, c) for c in range(1 - m, m, 2)]
            else:
                upper_boxes += [(r, c) for c in range(1, m, 2)]
                pyr.crossed += [(r, c) for c in range(1 - m, 0, 2)]
                pyr.crossed += [(-r, -c) for c in range(1 - m, 0, 2)]
                pyr.skew_rows.update({r, -r})
        else:  # skewpair
            ml, mm = unit[1], unit[2]
            upper_boxes += [(r, c) for c in range(1 - mm, ml, 2)]
            pyr.crossed += [(r, c) for c in range(1 - ml, -mm, 2)]
            pyr.crossed += [(-r, -c) for c in range(1 - ml, -mm, 2)]
            pyr.skew_rows.update({r, -r})

    upper_boxes.sort(key=lambda rc: (abs(rc[0]), rc[1]))
    idx = 0
    for r, c in upper_boxes:
        if r == 0 and c < 0:
            continue  # mirror of a positively numbered row-0 box
        if r == 0 and c == 0:
            pyr.row[0], pyr.col[0] = 0, 0
            continue
        idx += 1
        pyr.row[idx], pyr.col[idx] = r, c
        pyr.row[-idx], pyr.col[-idx] = -r, -c

    if 0 in pyr.row:
        pyr.skew_rows.add(0)
    if len(pyr.row) != lam.size:
        raise AssertionError(f"pyramid for {lam} has {len(pyr.row)} boxes, wanted {lam.size}")
    for i in pyr.boxes():
        if pyr.row.get(-i) != -pyr.row[i] or pyr.col.get(-i) != -pyr.col[i]:
            raise AssertionError("pyramid mirror symmetry violated")
    return pyr


# -- rigidity ---------------------------------------------------------------


def is_almost_rigid(lam: Partition) -> bool:
    """Steps of at most 1, including the final step to lambda_{n+1} = 0."""
    ext = list(lam.parts) + [0]
    return all(ext[i] - ext[i + 1] <= 1 for i in range(len(ext) - 1))


def is_rigid(lam: Partition, eps: int) -> bool:
    """Combinatorial rigidity criterion (Kempken/Spaltenstein form): almost
    rigid and no self-paired part value occurs with multiplicity exactly 2.

    The multiplicity rule stands for induction from gl_1 x g_{N-2}, so it
    holds only for N > 2: so_2 is a torus with no proper parabolic, and its
    zero orbit (1,1) is rigid.  Checked against the induction oracle for
    N <= 8; it is a closed form, never the authority.
    """
    if not validate_partition(lam, eps):
        raise ValueError(f"{lam} is not admissible for eps={eps}")
    if not is_almost_rigid(lam):
        return False
    for m in set(lam.parts):
        if lam.size > 2 and self_paired(m, eps) and lam.multiplicity(m) == 2:
            return False
    return True
