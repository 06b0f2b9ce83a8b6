"""Exact sparse linear algebra: rank/kernel/solve over fields, Smith normal
form over ZZ with transformation certificates, and saturated-lattice helpers.

Everything is exact; results verify by substitution.  Matrices are stored
sparsely with deterministic (sorted) iteration order so downstream output is
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Ring, ZZ, QQ, format_rational


class SparseMatrix:
    """Immutable sparse matrix over an exact ring.

    Entries are stored in a dict ``(row, col) -> scalar`` holding only the
    nonzero coefficients.
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
        """A matrix on entries that are already elements of ring at in-bounds
        positions, as the results of same-ring operations are; zeros are
        dropped, nothing is coerced."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.ring = nrows, ncols, ring
        m.entries = {k: v for k, v in entries.items() if v}
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, rows, ring: Ring) -> "SparseMatrix":
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v != 0:
                    entries[(i, j)] = v
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, ring, entries)

    @classmethod
    def identity(cls, n, ring: Ring) -> "SparseMatrix":
        return cls._closed(n, n, ring, {(i, i): ring.one() for i in range(n)})

    @classmethod
    def zeros(cls, nrows, ncols, ring: Ring) -> "SparseMatrix":
        return cls._closed(nrows, ncols, ring, {})

    # -- basics ------------------------------------------------------------

    def __getitem__(self, rc):
        v = self.entries.get(rc)
        return self.ring.zero() if v is None else v

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(sorted(self.entries.items()))))

    def is_zero(self) -> bool:
        return not self.entries

    def to_dense(self):
        rows = [[self.ring.zero()] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def items(self):
        """Deterministic iteration over nonzero entries."""
        return sorted(self.entries.items())

    def change_ring(self, ring: Ring) -> "SparseMatrix":
        if ring == self.ring:
            return self
        return SparseMatrix(self.nrows, self.ncols, ring, dict(self.entries))

    def _result(self, nrows, ncols, other, ent) -> "SparseMatrix":
        """The matrix on ent over self's ring: closed when other shares the
        ring, coerced entry by entry otherwise."""
        if other.ring == self.ring:
            return SparseMatrix._closed(nrows, ncols, self.ring, ent)
        return SparseMatrix(nrows, ncols, self.ring, ent)

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")

    def __add__(self, other):
        self._same_shape(other)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = self.ring.add(ent.get(k, 0), v)
        return self._result(self.nrows, self.ncols, other, ent)

    def __sub__(self, other):
        self._same_shape(other)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = self.ring.sub(ent.get(k, 0), v)
        return self._result(self.nrows, self.ncols, other, ent)

    def __neg__(self):
        return SparseMatrix._closed(
            self.nrows, self.ncols, self.ring,
            {k: self.ring.neg(v) for k, v in self.entries.items()},
        )

    def scale(self, c) -> "SparseMatrix":
        ring = self.ring
        try:
            c, build = ring.coerce(c), SparseMatrix._closed
        except ValueError:
            build = SparseMatrix   # c is not in the ring (a rational over ZZ): coerce each product
        return build(self.nrows, self.ncols, ring, {k: ring.mul(v, c) for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # accumulate exactly and reduce once: over GF(p) the residue of the
        # integer sum is the sum of the residues
        ent = {}
        add_product(ent, self.entries, row_map(other))
        if self.ring.kind == "GF":
            p = self.ring.p
            ent = {k: v % p for k, v in ent.items()}
        return self._result(self.nrows, other.ncols, other, ent)

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

    def apply(self, vec):
        """Matrix times dense tuple vector."""
        out = [self.ring.zero()] * self.nrows
        for (r, c), v in self.entries.items():
            if vec[c] != 0:
                out[r] = self.ring.add(out[r], self.ring.mul(v, vec[c]))
        return tuple(out)

    def trace(self):
        t = self.ring.zero()
        for (r, c), v in self.entries.items():
            if r == c:
                t = self.ring.add(t, v)
        return t

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


def row_map(m: SparseMatrix) -> dict:
    """The nonzero entries of m as {row: {col: scalar}}."""
    rows = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def add_product(acc: dict, x: dict, y: dict, coeff=1) -> None:
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


# -- field elimination: one sparse reduced-echelon span -----------------------


def sparse_vector(vec, ring: Ring) -> dict:
    """The nonzero entries of a dense vector as {index: scalar}, coerced into
    ring; an entry the ring cannot hold raises."""
    out = {}
    for i, x in enumerate(vec):
        if x != 0:
            x = ring.coerce(x)
            if x != 0:
                out[i] = x
    return out


class VectorSpan:
    """The reduced row echelon form of a growing span over a field.

    Rows are sparse maps {col: scalar} keyed by their pivot, the first
    nonzero column of the row; each row is 1 at its pivot and 0 at every
    other pivot.  The reduced echelon form of a span is unique, so the rows
    do not depend on the order of insertion.  Reducing a vector touches only
    the rows at the pivots in its support and, as no row has an entry at
    another pivot, takes one pass over them.
    """

    def __init__(self, ring: Ring, dim: int):
        if not ring.is_field:
            raise ValueError("VectorSpan requires a field")
        self.ring = ring
        self.dim = dim
        self._rows = {}   # pivot -> row
        self._mod = ring.p if ring.kind == "GF" else None

    def _axpy(self, v: dict, f, row: dict):
        """v -= f * row in place; f != 0, so an entry that vanishes was in v."""
        mod = self._mod
        if mod is None:
            for c, x in row.items():
                y = v.get(c, 0) - f * x
                if y:
                    v[c] = y
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
        rows = self._rows
        for p in [c for c in v if c in rows]:
            self._axpy(v, v[p], rows[p])
        return v

    def _own(self, vec) -> dict:
        return dict(vec) if isinstance(vec, dict) else sparse_vector(vec, self.ring)

    def add(self, vec) -> bool:
        """Insert vec, a dense sequence or a {col: scalar} map of nonzero
        ring elements; True if it enlarged the span."""
        v = self._reduce(self._own(vec))
        if not v:
            return False
        p = min(v)
        f = v[p]
        if f != 1:
            mod = self._mod
            inv = pow(f, -1, mod) if mod else 1 / f
            v = {c: inv * x % mod for c, x in v.items()} if mod else {c: inv * x for c, x in v.items()}
        for row in self._rows.values():
            if p in row:
                self._axpy(row, row[p], v)
        self._rows[p] = v
        return True

    def contains(self, vec) -> bool:
        """Membership of vec, given as for add."""
        return not self._reduce(self._own(vec))

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list:
        return sorted(self._rows)

    @property
    def rows(self) -> list:
        """Copies of the echelon rows as {col: scalar} maps, by increasing
        pivot."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]


def _row_span(m: SparseMatrix, rhs=None) -> VectorSpan:
    """The reduced echelon span of the rows of m; with rhs, row i is
    extended by rhs[i] in the column after m's last."""
    rows = [{} for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    if rhs is not None:
        for row, x in zip(rows, rhs):
            if x != 0:
                row[m.ncols] = x
    span = VectorSpan(m.ring, m.ncols + (rhs is not None))
    for row in rows:
        if row:
            span.add(row)
    return span


def rank_kernel(m: SparseMatrix):
    """Rank and a kernel basis (list of dense tuple vectors) over a field.

    Raises on ZZ input: integer matrices go through smith_normal_form.
    """
    if not m.ring.is_field:
        raise ValueError("rank_kernel requires a field; use smith_normal_form over ZZ")
    ring = m.ring
    span = _row_span(m)
    # kernel vector of free column fc: 1 at fc, -row_p[fc] at each pivot p
    kernel = {fc: {fc: ring.one()} for fc in range(m.ncols) if fc not in span._rows}
    for p, row in span._rows.items():
        for c, x in row.items():
            if c != p:
                kernel[c][p] = ring.neg(x)
    # substitution check: m K = 0 for K the matrix whose columns are the
    # kernel vectors, which checks every kernel vector
    kmat = SparseMatrix._closed(m.ncols, len(kernel), ring,
                                {(c, jj): x for jj, vec in enumerate(kernel.values()) for c, x in vec.items()})
    if not (m @ kmat).is_zero():
        raise AssertionError("kernel vector fails exact substitution check")
    dense = []
    for vec in kernel.values():
        full = [ring.zero()] * m.ncols
        for c, x in vec.items():
            full[c] = x
        dense.append(tuple(full))
    return span.rank, dense


def inverse_rows(rows):
    """Rows of the inverse over QQ of the square matrix with the given rows;
    None if the matrix is singular."""
    n = len(rows)
    span = VectorSpan(QQ, 2 * n)
    for i, row in enumerate(rows):
        v = sparse_vector(row, QQ)
        v[n + i] = QQ.one()
        span.add(v)
    # [A | I] has rank n; A is regular iff its pivots are the columns of A
    if span.pivots != list(range(n)):
        return None
    zero = QQ.zero()
    return [[span._rows[i].get(n + j, zero) for j in range(n)] for i in range(n)]


def rank_of_vectors(vectors, ring: Ring) -> int:
    if not vectors:
        return 0
    span = VectorSpan(ring, len(vectors[0]))
    for v in vectors:
        span.add(v)
    return span.rank


def solve(m: SparseMatrix, b):
    """One exact solution x of m x = b over a field, or None."""
    if not m.ring.is_field:
        raise ValueError("solve requires a field")
    ring = m.ring
    rhs = [ring.coerce(x) for x in b]
    n = m.ncols
    span = _row_span(m, rhs)
    # inconsistent iff a pivot lands in the appended column
    if n in span._rows:
        return None
    x = [ring.zero()] * n
    for p, row in span._rows.items():
        if n in row:
            x[p] = row[n]
    sol = tuple(x)
    out = m.apply(sol)
    if any(ring.sub(out[i], rhs[i]) != 0 for i in range(m.nrows)):
        raise AssertionError("solve result fails exact substitution check")
    return sol


# -- Smith normal form over ZZ ----------------------------------------------


@dataclass
class SNFResult:
    divisors: list        # length min(m,n); nonnegative; d_i | d_{i+1}
    left: SparseMatrix    # U, unimodular m x m
    right: SparseMatrix   # V, unimodular n x n
    left_inv: SparseMatrix
    right_inv: SparseMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)


def smith_normal_form(m: SparseMatrix) -> SNFResult:
    """Smith normal form U m V = D over ZZ, with certificates verified."""
    if m.ring.kind != "ZZ":
        raise ValueError("smith_normal_form requires integer entries")
    a = [[int(v) for v in row] for row in m.to_dense()]
    nr, nc = m.nrows, m.ncols
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    Uinv = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    Vinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in range(nr):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_add(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for r in range(nr):
            Uinv[r][j] -= q * Uinv[r][i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]
        for r in range(nr):
            Uinv[r][i] = -Uinv[r][i]

    def col_swap(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in range(nr):
            a[r][i] += q * a[r][j]
        for r in range(nc):
            V[r][i] += q * V[r][j]
        Vinv[j] = [x - q * y for x, y in zip(Vinv[j], Vinv[i])]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # pivot: minimal absolute value nonzero in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    divisors = [a[i][i] for i in range(limit)]
    for i in range(len(divisors) - 1):
        if divisors[i + 1] % max(divisors[i], 1) != 0 and divisors[i] != 0:
            raise AssertionError("divisibility chain violated")
    res = SNFResult(
        divisors,
        SparseMatrix.from_dense(U, ZZ),
        SparseMatrix.from_dense(V, ZZ),
        SparseMatrix.from_dense(Uinv, ZZ),
        SparseMatrix.from_dense(Vinv, ZZ),
    )
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


def integer_kernel_basis(m: SparseMatrix):
    """Basis (list of int tuple vectors) of the saturated ZZ-kernel lattice."""
    if m.ring.kind != "ZZ":
        raise ValueError("integer_kernel_basis requires integer entries")
    res = smith_normal_form(m)
    rank = res.rank
    vd = res.right.to_dense()
    out = []
    for j in range(rank, m.ncols):
        out.append(tuple(int(vd[i][j]) for i in range(m.ncols)))
    return out


def complete_saturated_basis(vectors, dim):
    """Complete rows spanning a saturated sublattice of ZZ^dim to a basis of
    ZZ^dim; returns the list of completion vectors."""
    if not vectors:
        return [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    b = SparseMatrix.from_dense([list(v) for v in vectors], ZZ)
    res = smith_normal_form(b)
    for d in res.divisors:
        if d not in (0, 1):
            raise ValueError("sublattice is not saturated over ZZ")
    k = res.rank
    if k != len(vectors):
        raise ValueError("input vectors are not linearly independent")
    vinv = res.right_inv.to_dense()  # rows of V^{-1}
    return [tuple(int(x) for x in vinv[i]) for i in range(k, dim)]
