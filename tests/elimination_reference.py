"""A reference elimination for the tests, independent of ``matrices.Echelon``.

Column-major Gauss-Jordan on RingElement arithmetic: each column takes the
first row at or below the current rank whose entry is a unit as its pivot,
and columns without one are skipped.  Over a local ring the pivot set and
the reduced form do not depend on the order of the rows, so this and the
library's row-at-a-time echelon form must agree exactly.
"""

from wittlab.matrices import SingularMatrixError, mat_identity, mat_mul


def rref(rows, ncols):
    """Reduce the row lists in place on their first ncols columns and
    return the pivot columns in increasing order."""
    pivots = []
    m = len(rows)
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, m) if rows[r][col].is_unit()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        prow = rows[rank] = [inv * c for c in rows[rank]]
        for r in range(m):
            f = rows[r][col]
            if r != rank and not f.is_zero():
                rows[r] = [c - f * p for c, p in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def kernel_basis(ring, T):
    rows = [list(r) for r in T]
    n = len(rows[0]) if rows else 0
    pivots = rref(rows, n)
    if any(not c.is_zero() for row in rows[len(pivots):] for c in row):
        raise SingularMatrixError("row space has no unit pivot for a nonzero row")
    kernel = []
    for j in range(n):
        if j in pivots:
            continue
        v = [ring.zero] * n
        v[j] = ring.one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][j]
        kernel.append(tuple(v))
    return pivots, tuple(kernel)


def mat_inverse(ring, A):
    n = len(A)
    M = [list(row) + list(idrow) for row, idrow in zip(A, mat_identity(ring, n))]
    if len(rref(M, n)) < n:
        raise SingularMatrixError("matrix is not invertible over the local ring")
    return tuple(tuple(row[n:]) for row in M)


def solve_field(field, A, b):
    n = len(A[0]) if A else 0
    rows = [list(A[i]) + [b[i]] for i in range(len(A))]
    pivots = rref(rows, n)
    if any(not row[n].is_zero() for row in rows[len(pivots):]):
        return None
    x = [field.zero] * n
    for i, p in enumerate(pivots):
        x[p] = rows[i][n]
    return tuple(x)


def orthogonal_complement(space, W):
    """The kernel of the rows w^T A, through the reference elimination."""
    if not W:
        return space.standard_basis()
    return kernel_basis(space.ring, mat_mul(tuple(W), space.gram))[1]
