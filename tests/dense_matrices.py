"""Dense matrices for the tests: lists of rows, read into and out of
SparseMatrix.  orbitforge itself holds every matrix sparsely, so these two
readers live here, next to the dense references the tests compare with."""

from orbitforge.linalg import SparseMatrix


def from_dense(rows, ring) -> SparseMatrix:
    """The matrix over ring with these rows; the constructor coerces each
    nonzero entry, so one the ring cannot hold raises."""
    ncols = len(rows[0]) if rows else 0
    return SparseMatrix(len(rows), ncols, ring,
                        {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v != 0})


def to_dense(m: SparseMatrix) -> list:
    """The rows of m as lists, zeros included."""
    return [[m[r, c] for c in range(m.ncols)] for r in range(m.nrows)]
