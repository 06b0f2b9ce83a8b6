"""Exact sparse linear algebra: one echelon span over a field, VectorSpan,
behind every rank count, kernel, solution and inverse over QQ and every
rank over GF(p) (a span has no fixed width: its columns are the keys of
the vectors added), the closure of a vector under matrices mod p
(closure_ranks), Smith normal form over ZZ with transformation
certificates, and saturated-lattice helpers.

A span holds the same rows over every field, by one code path: sparse maps
{col: scalar} in reduced echelon form, whose entries over GF(p) are taken
mod p as they come in.  A GF(p) span is never read back: it adds vectors,
answers membership and reports its rank and pivots.  Kernels, solutions
and inverses are taken over QQ only, from its rows.  closure_ranks alone,
over GF(p) with p <= 13, grows a span of its own on byte-packed vectors:
one Python int holds the residue at column c in byte c, renormalised mod p
by bytes.translate at most every floor((256 - p)/(p - 1)^2) additions
(lane_budget).  The packed format stays inside it.

Vectors cross its boundary in one format, as everywhere in orbitforge: the
{index: scalar} map of the nonzero entries, keys ascending.  rank_kernel,
solve, inverse_rows, integer_kernel_basis, complete_saturated_basis and
SparseMatrix.apply and .rows take and give such maps (a key outside the
matrix raises ValueError); a caller that needs only a rank, over any
field, reads row_span(m).rank.  No matrix is dense, inside the module
either: the Smith normal form works on {index: int} maps, the reduced
matrix, U and V^-1 by rows and U^-1 and V by columns.

Everything is exact; results verify by substitution.  Matrices are stored
sparsely with deterministic (sorted) iteration order so downstream output is
reproducible byte for byte.  The constructor coerces the entries it is
given, and SparseMatrix._closed is the one normaliser of computed entries.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, lcm

from .rings import Ring, ZZ, QQ, canonical, format_rational


class SparseMatrix:
    """Immutable sparse matrix over an exact ring.

    Entries are stored in a dict ``(row, col) -> scalar`` holding only the
    nonzero coefficients.  Sums and products take operands over one ring.
    """

    __slots__ = ("nrows", "ncols", "ring", "entries")

    def __init__(self, nrows, ncols, ring: Ring, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        cleaned = {}
        if entries:
            for (r, c), v in entries.items():
                v = ring.coerce(v)
                if v != 0:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError(f"entry ({r},{c}) out of bounds")
                    cleaned[(r, c)] = v
        self.entries = cleaned

    @classmethod
    def _closed(cls, nrows, ncols, ring: Ring, entries) -> "SparseMatrix":
        """A matrix on entries computed by Python's operators from elements
        of ring, at in-bounds positions: the one normaliser of computed
        entries.  Over QQ an integral Fraction is stored as its int, over
        GF(p) each entry is reduced mod p, and zeros are dropped."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.ring = nrows, ncols, ring
        if ring.kind == "QQ":
            m.entries = {k: v if type(v) is int else canonical(v) for k, v in entries.items() if v}
        elif ring.kind == "GF":
            m.entries = {k: r for k, v in entries.items() if (r := v % ring.p)}
        else:
            m.entries = {k: v for k, v in entries.items() if v}
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, ring: Ring) -> "SparseMatrix":
        return cls._closed(n, n, ring, {(i, i): 1 for i in range(n)})

    # -- basics ------------------------------------------------------------

    def __getitem__(self, rc):
        return self.entries.get(rc, 0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def rows(self, start: int = 0) -> list:
        """Rows start, start + 1, ... as {col: scalar} maps, keys ascending,
        empty ones included."""
        out = [{} for _ in range(start, self.nrows)]
        for (r, c), v in self.items():
            if r >= start:
                out[r - start][c] = v
        return out

    def items(self):
        """Deterministic iteration over nonzero entries."""
        return sorted(self.entries.items())

    def change_ring(self, ring: Ring) -> "SparseMatrix":
        if ring == self.ring:
            return self
        return SparseMatrix(self.nrows, self.ncols, ring, dict(self.entries))

    def _operand(self, other, fits: bool, what: str):
        if not fits:
            raise ValueError(f"shape mismatch in matrix {what}")
        if other.ring != self.ring:
            raise ValueError(f"ring mismatch in matrix {what}: {self.ring} and {other.ring}")

    def _sum(self, other, sign: int) -> "SparseMatrix":
        self._operand(other, (self.nrows, self.ncols) == (other.nrows, other.ncols), "sum")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = ent.get(k, 0) + sign * v
        return SparseMatrix._closed(self.nrows, self.ncols, self.ring, ent)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return SparseMatrix._closed(self.nrows, self.ncols, self.ring, {k: -v for k, v in self.entries.items()})

    def scale(self, c) -> "SparseMatrix":
        """c times self; a scalar the ring cannot hold raises ValueError."""
        c = self.ring.coerce(c)
        return SparseMatrix._closed(self.nrows, self.ncols, self.ring, {k: v * c for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._operand(other, self.ncols == other.nrows, "product")
        # accumulate exactly; _closed reduces once (over GF(p) the residue
        # of the integer sum is the sum of the residues)
        ent = {}
        _add_product(ent, self.entries, _row_map(other.entries))
        return SparseMatrix._closed(self.nrows, other.ncols, self.ring, ent)

    def columns(self, cols) -> "SparseMatrix":
        """The submatrix on the listed columns, in that order."""
        at = {c: jj for jj, c in enumerate(cols)}
        return SparseMatrix._closed(
            self.nrows, len(at), self.ring,
            {(r, at[c]): v for (r, c), v in self.entries.items() if c in at},
        )

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._closed(
            self.ncols, self.nrows, self.ring,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def apply(self, vec: dict) -> dict:
        """self times the vector {index: scalar} vec, as a map; summed
        exactly and brought into the ring by one ring.coerce per output.  A
        key of vec that is not a column raises ValueError."""
        _check_keys(vec, self.ncols, "vector", "columns")
        acc = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                acc[r] = acc.get(r, 0) + v * x
        coerce = self.ring.coerce
        return {r: y for r in sorted(acc) if (y := coerce(acc[r]))}

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "ring": str(self.ring),
            "entries": [[r, c, format_rational(v)] for (r, c), v in self.items()],
        }

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols} over {self.ring}, {len(self.entries)} nonzero)"


def commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    return (a @ b) - (b @ a)


def _check_keys(vec: dict, n: int, what: str, axis: str) -> None:
    """Raise ValueError unless every key of the map vec is in range(n)."""
    outside = [k for k in vec if k not in range(n)]
    if outside:
        raise ValueError(f"{what} has entries {outside} outside the {n} {axis}")


def _row_map(entries: dict) -> dict:
    """The entries {(row, col): scalar} of a matrix as {row: {col: scalar}}."""
    rows = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _add_product(acc: dict, x: dict, y: dict, coeff=1) -> None:
    """acc[(r, c)] += coeff * (xy)[r, c] for x given by its entries
    {(r, k): scalar} and y by its row map: the one sparse product kernel.
    The sums are exact and not reduced (the caller reduces mod p), and
    entries that cancel stay as 0."""
    for (r, k), a in x.items():
        yk = y.get(k)
        if yk:
            if coeff != 1:
                a *= coeff
            for c, b in yk.items():
                key = (r, c)
                acc[key] = acc.get(key, 0) + a * b


def bracket_residues(mats: dict, pairs, rhs=None, p: int = 0):
    """The one matrix bracket-law kernel: (a, b, residue) for each pair (a, b)
    in order whose residue mats[a] mats[b] - mats[b] mats[a] - sum of c mats[k]
    over (k, c) in rhs(a, b) (no sum if rhs is None) is nonzero.  mats maps
    keys to integer entries {(row, col): v}; the residue is such a dict, exact
    or reduced mod p when p is given.  Row maps are built once, and a product
    whose factors' supports do not meet is skipped."""
    rows = {key: _row_map(ent) for key, ent in mats.items()}
    # meets[a]: the keys b with a row at one of a's columns, the only b with a b != 0
    at_row = {}
    for key, rm in rows.items():
        for r in rm:
            at_row.setdefault(r, set()).add(key)
    meets = {key: set().union(*(at_row.get(c, ()) for c in {c for _, c in ent})) for key, ent in mats.items()}
    for a, b in pairs:
        ab, ba = b in meets[a], a in meets[b]
        if not (ab or ba) and rhs is None:
            continue
        acc = {}
        if ab:
            _add_product(acc, mats[a], rows[b])
        if ba:
            _add_product(acc, mats[b], rows[a], -1)
        if rhs is not None:
            for k, c in rhs(a, b):
                for rc, v in mats[k].items():
                    acc[rc] = acc.get(rc, 0) - c * v
        if p:
            acc = {rc: v % p for rc, v in acc.items()}
        if any(acc.values()):
            yield a, b, {rc: v for rc, v in acc.items() if v}


# -- field elimination: one echelon span over every field ---------------------


class VectorSpan:
    """The echelon form of a growing span over a field, QQ or GF(p), by one
    code path: each row is a sparse map {col: scalar}, keyed by its pivot
    (its first nonzero column), 1 there and 0 at every other pivot, kept
    reduced on every insertion.  Reducing a vector touches only the rows at
    the pivots in its support, in one pass.  Over GF(p) each entry is taken
    mod p as it comes in, so an entry that p divides counts as absent.
    Reduced echelon form is unique, so the rows do not depend on the order
    of insertion; over QQ rank_kernel, solve and inverse_rows read them,
    over GF(p) only the rank, the pivots and membership are read."""

    def __init__(self, ring: Ring):
        if not ring.is_field:
            raise ValueError("VectorSpan requires a field")
        self._rows = {}   # pivot -> row
        self._mod = ring.p if ring.kind == "GF" else None

    def _axpy(self, v: dict, f, row: dict):
        """v -= f * row in place; f != 0, so an entry that vanishes was in v.
        Over QQ an integral result is stored as an int."""
        mod = self._mod
        if mod is None:
            for c, x in row.items():
                y = v.get(c, 0) - f * x
                if y:
                    v[c] = y if type(y) is int else canonical(y)
                else:
                    del v[c]
        else:
            for c, x in row.items():
                y = (v.get(c, 0) - f * x) % mod
                if y:
                    v[c] = y
                else:
                    del v[c]

    def _reduce(self, v: dict) -> dict:
        """A reduced copy of v, without the zero entries v may hold; over
        GF(p) each entry is taken mod p first."""
        mod = self._mod
        if mod:
            v = {c: y for c, x in v.items() if (y := x % mod)}
        else:
            v = dict(v) if all(v.values()) else {c: x for c, x in v.items() if x}
        rows = self._rows
        for p in [c for c in v if c in rows]:
            self._axpy(v, v[p], rows[p])
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec, a {col: scalar} map of ring elements (a zero entry
        counts as absent); True if it enlarged the span."""
        v = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        f = v[p]
        if f != 1:
            mod = self._mod
            if mod:
                inv = pow(f, -1, mod)
                v = {c: inv * x % mod for c, x in v.items()}
            else:
                v = {c: QQ.div(x, f) for c, x in v.items()}
        for row in self._rows.values():
            if p in row:
                self._axpy(row, row[p], v)
        self._rows[p] = v
        return True

    def contains(self, vec: dict) -> bool:
        """Membership of vec, given as for add."""
        return not self._reduce(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list:
        return sorted(self._rows)


def row_span(m: SparseMatrix) -> VectorSpan:
    """The reduced echelon span of the rows of m."""
    span = VectorSpan(m.ring)
    for row in _row_map(m.entries).values():
        span.add(row)
    return span


def rank_kernel(m: SparseMatrix):
    """Rank and a kernel basis, as {index: scalar} maps, over QQ; a caller
    that needs only the rank, over any field, reads row_span(m).rank.

    Raises ValueError on any other ring: integer matrices go through
    smith_normal_form.
    """
    if m.ring != QQ:
        raise ValueError(f"rank_kernel works over QQ, not {m.ring}; use smith_normal_form over ZZ "
                         "and row_span(m).rank for a rank mod p")
    span = row_span(m)
    echelon = span._rows
    # kernel vector of free column fc: -row_p[fc] at each pivot p < fc, then 1 at fc
    kernel = {fc: {} for fc in range(m.ncols) if fc not in echelon}
    for p in sorted(echelon):
        for c, x in echelon[p].items():
            if c != p:
                kernel[c][p] = -x
    for fc, vec in kernel.items():
        vec[fc] = 1
    # substitution check: m K = 0 for K the matrix whose columns are the
    # kernel vectors, which checks every kernel vector
    kmat = SparseMatrix._closed(m.ncols, len(kernel), QQ,
                                {(c, jj): x for jj, vec in enumerate(kernel.values()) for c, x in vec.items()})
    if not (m @ kmat).is_zero():
        raise AssertionError("kernel vector fails exact substitution check")
    return span.rank, list(kernel.values())


def inverse_rows(rows):
    """The rows of the inverse over QQ of the square matrix whose rows are
    the given {col: scalar} maps, as maps; None if the matrix is singular.
    A key that is not a column raises ValueError."""
    n = len(rows)
    span = VectorSpan(QQ)
    for i, row in enumerate(rows):
        _check_keys(row, n, f"row {i}", "columns")
        span.add({**row, n + i: 1})
    # [A | I] has rank n; A is regular iff its pivots are the columns of A
    if span.pivots != list(range(n)):
        return None
    return [{c - n: row[c] for c in sorted(row) if c != i} for i, row in sorted(span._rows.items())]


def solve(m: SparseMatrix, b: dict):
    """One exact solution x of m x = b over QQ, or None; b and x are
    {index: scalar} maps, and a key of b that is not a row of m raises
    ValueError, as does any ring but QQ."""
    if m.ring != QQ:
        raise ValueError(f"solve works over QQ, not {m.ring}")
    _check_keys(b, m.nrows, "right-hand side", "rows")
    rhs = {i: y for i in sorted(b) if (y := QQ.coerce(b[i]))}
    n = m.ncols
    augmented = dict(m.entries)
    augmented.update(((i, n), x) for i, x in rhs.items())
    # m with b appended as a last column: inconsistent iff a pivot lands there
    echelon = row_span(SparseMatrix._closed(m.nrows, n + 1, QQ, augmented))._rows
    if n in echelon:
        return None
    x = {p: echelon[p][n] for p in sorted(echelon) if n in echelon[p]}
    if m.apply(x) != rhs:
        raise AssertionError("solve result fails exact substitution check")
    return x


# -- closure under matrices mod p, on byte-packed rows ------------------------


def lane_budget(p: int) -> int:
    """The row additions a byte-packed vector mod p takes between
    renormalisations, floor((256 - p) / (p - 1)^2): after that many, a byte
    that started below p is still at most 255.  It is 0 for p > 13, where
    closure_ranks packs nothing and refuses to run."""
    return max(0, (256 - p) // (p - 1) ** 2)


class _PackedSpan:
    """The span closure_ranks grows over GF(p) with p <= 13: _close adds
    vectors and reads its rank, len(_rows), and nothing else uses it.  A
    vector is one Python int whose byte c holds its residue at column c
    (columns are nonnegative ints).  The row with pivot c is 1 there, and
    is held as the int of its bytes above c: byte i holds its residue at
    column c + 1 + i.  Rows are kept semi-reduced (0 left of their pivot,
    not at the other pivots).  A vector is reduced from its lowest byte up:
    at a pivot, one big-int multiply-add takes the row off, and a shift
    drops the cleared byte.  Bytes grow by at most (p - 1)^2 per addition
    and are renormalised mod p, by bytes.translate with a 256-entry table,
    once every lane_budget(p) additions, before any byte can pass 255."""

    def __init__(self, p: int):
        self._rows = {}   # pivot -> the row's bytes above its pivot
        self._mod = p
        self._budget = lane_budget(p)
        self._table = _residues(p)

    def _normal(self, u: int) -> int:
        """u with every byte replaced by its residue mod p."""
        return int.from_bytes(u.to_bytes((u.bit_length() + 7) >> 3, "little").translate(self._table), "little")

    def _sift(self, u: int):
        """None if the packed vector u is in the span, else (c, rest): c is
        the first column at which u minus rows of the span has a nonzero
        residue and no row has its pivot, and rest holds that difference's
        residues from column c on (byte 0 at c)."""
        get, mod, budget = self._rows.get, self._mod, self._budget
        col = added = 0
        while u:
            b = u & 255
            if not b:
                skip = ((u & -u).bit_length() - 1) >> 3
                u >>= skip << 3
                col += skip
                b = u & 255
            f = -b % mod
            tail = get(col)
            if tail is None:
                if f:
                    return col, self._normal(u) if added else u
                u >>= 8
            elif f:
                if added == budget:
                    u, added = self._normal(u), 0
                u = (u >> 8) + f * tail
                added += 1
            else:
                u >>= 8
            col += 1
        return None

    def _insert(self, v: int) -> bool:
        """Insert the packed vector v (left as it is); True if it enlarged
        the span."""
        hit = self._sift(v)
        if hit is None:
            return False
        c, u = hit
        f, tail = u & 255, u >> 8
        if f != 1 and tail:
            tail = self._normal(tail * pow(f, -1, self._mod))
        self._rows[c] = tail
        return True

    def _apply(self, op, v: int) -> int:
        """The image of the packed vector v under an operator from
        _operator."""
        data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        # sum_j v_j col_j = sum over t = 1 .. p - 1 of the columns j with v_j >= t
        at_least = _at_least(self._mod)
        out = 0
        for cols in op:
            part = self._normal(sum(sum(compress(cols, data.translate(sel)), 0) for sel in at_least))
            out = self._normal(out + part) if out else part
        return out


def _operator(m: SparseMatrix, p: int) -> list:
    """m prepared to act on packed vectors mod p: m split into parts with
    at most lane_budget(p) entries in any row, each part a list of packed
    columns, so that no byte of a part's product passes 255."""
    budget = lane_budget(p)
    parts, seen = [], {}
    for (r, c), x in m.entries.items():
        k = seen.get(r, 0)   # the entries of row r placed so far
        seen[r] = k + 1
        k //= budget
        if k == len(parts):
            parts.append([0] * m.ncols)
        parts[k][c] += x << (r << 3)
    return parts


@lru_cache(maxsize=None)
def _residues(p: int) -> bytes:
    """The translate table mapping each byte to its residue mod p."""
    return bytes(i % p for i in range(256))


@lru_cache(maxsize=None)
def _at_least(p: int) -> list:
    """For t = 1 .. p - 1, the translate table mapping a residue >= t to 1
    and any other byte to 0."""
    return [bytes(int(t <= i < p) for i in range(256)) for t in range(1, p)]


def closure_ranks(ring: Ring, seeds, matrices) -> list:
    """For each seed, a vector of ring^n given as the {index: scalar} map of
    its nonzero entries, the rank of the smallest subspace that holds it and
    is stable under the n x n matrices.  ring is GF(p) with p <= 13, whose
    vectors are packed into bytes; any other ring raises ValueError.  The
    matrices are prepared once for all seeds; with none, n is never read."""
    if ring.kind != "GF" or not lane_budget(ring.p):
        raise ValueError(f"closure_ranks works over GF(p) with p <= 13, not {ring}")
    n = matrices[0].nrows if matrices else 0
    ops = [_operator(m, ring.p) for m in matrices]
    return [_close(_PackedSpan(ring.p), seed, ops, n) for seed in seeds]


def _close(span: _PackedSpan, seed: dict, ops, n: int) -> int:
    """The rank of the closure of the map seed under ops in span, breadth
    first: the images of each new vector in turn, under each operator in
    turn.  Stops once the span has rank n, the whole space, since no image
    can raise it further."""
    v = sum(x % span._mod << (c << 3) for c, x in seed.items())
    frontier = [v] if span._insert(v) else []
    while frontier:
        nxt = []
        for v in frontier:
            for op in ops:
                w = span._apply(op, v)
                if span._insert(w):
                    if len(span._rows) == n:
                        return n
                    nxt.append(w)
        frontier = nxt
    return len(span._rows)


# -- Smith normal form over ZZ ----------------------------------------------


class SNFResult:
    __slots__ = ("divisors", "left", "right", "left_inv", "right_inv")

    def __init__(self, divisors: list, left: SparseMatrix, right: SparseMatrix,
                 left_inv: SparseMatrix, right_inv: SparseMatrix):
        self.divisors = divisors     # length min(m,n); nonnegative; d_i | d_{i+1}
        self.left = left             # U, unimodular m x m
        self.right = right           # V, unimodular n x n
        self.left_inv = left_inv
        self.right_inv = right_inv

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)


def _add_multiple(v: dict, q: int, w: dict) -> None:
    """v += q * w in place, for {index: int} maps; an entry that vanishes is
    dropped."""
    if q:
        for c, x in w.items():
            y = v.get(c, 0) + q * x
            if y:
                v[c] = y
            else:
                del v[c]


def smith_normal_form(m: SparseMatrix) -> SNFResult:
    """Smith normal form U m V = D over ZZ, with certificates verified.

    Every working matrix is a list of {index: int} maps: the reduced copy a
    of m, U and V^-1 by rows, U^-1 and V by columns.  A row operation is one
    axpy or swap on a row of a and of U and on a column of U^-1; a column
    operation, one on the rows of a, a column of V and a row of V^-1."""
    if m.ring.kind != "ZZ":
        raise ValueError("smith_normal_form requires integer entries")
    nr, nc = m.nrows, m.ncols
    a = m.rows()
    U, Uinv = [{i: 1} for i in range(nr)], [{i: 1} for i in range(nr)]
    V, Vinv = [{i: 1} for i in range(nc)], [{i: 1} for i in range(nc)]

    def row_swap(i, j):
        for x in (a, U, Uinv):
            x[i], x[j] = x[j], x[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        _add_multiple(a[i], q, a[j])
        _add_multiple(U[i], q, U[j])
        _add_multiple(Uinv[j], -q, Uinv[i])

    def col_swap(i, j):
        for row in a:
            x, y = row.pop(i, 0), row.pop(j, 0)
            row.update((c, v) for c, v in ((i, y), (j, x)) if v)
        for x in (V, Vinv):
            x[i], x[j] = x[j], x[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for row in a:
            if j in row:
                _add_multiple(row, q, {i: row[j]})
        _add_multiple(V[i], q, V[j])
        _add_multiple(Vinv[j], -q, Vinv[i])

    def clear_column(t) -> bool:
        """Reduce column t below the pivot; True if a remainder became the
        pivot."""
        dirty = False
        for i in range(t + 1, nr):
            if t in a[i]:
                row_add(i, t, -(a[i][t] // a[t][t]))
                if t in a[i]:
                    row_swap(t, i)
                    dirty = True
        return dirty

    def clear_row(t) -> bool:
        """Reduce row t right of the pivot up to the first remainder, which
        becomes the pivot; True if there was one."""
        for j in sorted(c for c in a[t] if c > t):
            col_add(j, t, -(a[t][j] // a[t][t]))
            if j in a[t]:
                col_swap(t, j)
                return True
        return False

    def offending_row(t):
        """The first row below t with an entry the pivot does not divide,
        or None."""
        p = a[t][t]
        for i in range(t + 1, nr):
            if any(x % p for x in a[i].values()):
                return i
        return None

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # pivot: the first entry of least absolute value in the trailing
        # block (rows t.., which hold no entry left of column t), row by row;
        # no entry is less than 1, so the scan ends there
        best = None   # (|entry|, column, row)
        for i in range(t, nr):
            least = a[i] and min((abs(x), j) for j, x in a[i].items())
            if least and (best is None or least[0] < best[0]):
                best = (*least, i)
                if least[0] == 1:
                    break
        if best is None:
            break
        _, j, i = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        # each round that does not finish leaves a nonzero remainder of the
        # pivot at (t, t), so |a[t][t]| strictly falls and the loop ends
        while True:
            size = abs(a[t][t])
            if not clear_column(t) and not clear_row(t):
                # pivot must divide the whole trailing block for the chain
                # (a unit divides every entry); an offending row added to
                # row t leaves a remainder there
                offender = None if abs(a[t][t]) == 1 else offending_row(t)
                if offender is None:
                    break
                row_add(t, offender, 1)
                clear_row(t)
            if abs(a[t][t]) >= size:
                raise AssertionError("SNF pivot loop failed to terminate")
        if a[t][t] < 0:
            for x in (a, U, Uinv):
                x[t] = {c: -y for c, y in x[t].items()}
        t += 1

    divisors = [a[i].get(i, 0) for i in range(limit)]
    for i in range(len(divisors) - 1):
        if divisors[i + 1] % max(divisors[i], 1) != 0 and divisors[i] != 0:
            raise AssertionError("divisibility chain violated")

    def matrix(maps, by_columns):
        return SparseMatrix._closed(len(maps), len(maps), ZZ, {
            (c, i) if by_columns else (i, c): x for i, v in enumerate(maps) for c, x in v.items()})

    res = SNFResult(divisors, matrix(U, False), matrix(V, True), matrix(Uinv, True), matrix(Vinv, False))
    _verify_snf(m, res)
    return res


def _verify_snf(m: SparseMatrix, res: SNFResult):
    d = res.left @ m @ res.right
    expect = {}
    for i, v in enumerate(res.divisors):
        if v != 0:
            expect[(i, i)] = v
    if d.entries != expect:
        raise AssertionError("SNF certificates fail to recompose the input")
    if (res.left @ res.left_inv) != SparseMatrix.identity(m.nrows, ZZ):
        raise AssertionError("left certificate is not invertible")
    if (res.right @ res.right_inv) != SparseMatrix.identity(m.ncols, ZZ):
        raise AssertionError("right certificate is not invertible")


def divisor_chain(entries) -> list:
    """SNF divisors of the square diagonal integer matrix with these entries: the
    nonzero ones sorted, (d_i, d_j) <- (gcd, lcm) for i < j unless d_i | d_j, then 0s."""
    d = sorted(abs(x) for x in entries if x)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d + [0] * (len(entries) - len(d))


def integer_kernel_basis(m: SparseMatrix):
    """Basis of the saturated ZZ-kernel lattice, as {index: int} maps: the
    columns of the right SNF certificate past the rank."""
    if m.ring.kind != "ZZ":
        raise ValueError("integer_kernel_basis requires integer entries")
    res = smith_normal_form(m)
    return res.right.transpose().rows(res.rank)


def complete_saturated_basis(vectors, dim):
    """Complete the {index: int} maps spanning a saturated sublattice of
    ZZ^dim to a basis of ZZ^dim; returns the completion vectors as maps."""
    if not vectors:
        return [{j: 1} for j in range(dim)]
    b = SparseMatrix(len(vectors), dim, ZZ, {(r, c): x for r, v in enumerate(vectors) for c, x in v.items()})
    res = smith_normal_form(b)
    for d in res.divisors:
        if d not in (0, 1):
            raise ValueError("sublattice is not saturated over ZZ")
    k = res.rank
    if k != len(vectors):
        raise ValueError("input vectors are not linearly independent")
    return res.right_inv.rows(k)   # rows of V^{-1}
