"""Small exact matrix routines over a local ring.

Matrices are tuples of row tuples of RingElement.  Everything here relies
on the local property: an invertible matrix always admits a unit pivot in
every elimination step (otherwise its determinant would sit in the maximal
ideal).  mat_inverse, kernel_basis and solve_field are entry points over one
unit-pivot reduced-row-echelon routine, _rref.
"""

from __future__ import annotations

from .rings import LocalRing, RingElement


class SingularMatrixError(Exception):
    pass


def mat_identity(ring: LocalRing, n: int):
    one, zero = ring.one, ring.zero
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_mul(A, B):
    Bt = mat_transpose(B)
    return tuple(
        tuple(_dot(row, col) for col in Bt)
        for row in A
    )


def _dot(xs, ys):
    it = iter(zip(xs, ys))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def mat_det(ring: LocalRing, A) -> RingElement:
    """Determinant by expansion over column subsets (exact over any ring)."""
    n = len(A)
    if n == 0:
        return ring.one
    # dp over (row index, frozenset of used columns) via bitmask layers
    prev = {0: ring.one}
    for i in range(n):
        cur: dict[int, RingElement] = {}
        for mask, val in prev.items():
            sign_base = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign_base += 1
                    continue
                a = A[i][j]
                if a.is_zero():
                    continue
                term = val * a
                if sign_base % 2:
                    term = -term
                key = mask | bit
                if key in cur:
                    cur[key] = cur[key] + term
                else:
                    cur[key] = term
        prev = cur
        if not prev:
            return ring.zero
    return prev.get((1 << n) - 1, ring.zero)


def mat_inverse(ring: LocalRing, A):
    """Inverse of an invertible matrix via Gauss-Jordan with unit pivots."""
    n = len(A)
    M = [list(row) + list(idrow) for row, idrow in zip(A, mat_identity(ring, n))]
    if len(_rref(M, n)) < n:
        raise SingularMatrixError("matrix is not invertible over the local ring")
    return tuple(tuple(row[n:]) for row in M)


def congruent(M, A):
    """M^T * A * M."""
    Mt = mat_transpose(M)
    return mat_mul(Mt, mat_mul(A, M))


def _rref(rows, ncols):
    """Reduce the row lists in place to reduced row echelon form on their
    first ncols columns and return the pivot columns.

    Each column takes the first row at or below the current rank whose entry
    is a unit as its pivot; columns without one are skipped.  Over a field a
    unit is any nonzero entry, so this is plain Gauss-Jordan there.
    """
    m = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        for pivot in range(rank, m):
            if rows[pivot][col].is_unit():
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [inv * c for c in rows[rank]]
        for r in range(m):
            if r == rank:
                continue
            f = rows[r][col]
            if f.is_zero():
                continue
            rows[r] = [c - f * p for c, p in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def kernel_basis(ring: LocalRing, T):
    """Basis of {x : T x = 0} for T with free row span admitting unit pivots.

    Returns (pivot_columns, kernel_vectors).  Raises SingularMatrixError
    when a leftover row has no unit entry (row span not a free summand of
    full expected rank, e.g. a degenerate restriction).
    """
    rows = [list(r) for r in T]
    n = len(rows[0]) if rows else 0
    pivots = _rref(rows, n)
    for row in rows[len(pivots):]:
        if any(not c.is_zero() for c in row):
            raise SingularMatrixError("row space has no unit pivot for a nonzero row")
    zero, one = ring.zero, ring.one
    free_cols = [j for j in range(n) if j not in pivots]
    kernel = []
    for j in free_cols:
        v = [zero] * n
        v[j] = one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][j]
        kernel.append(tuple(v))
    return pivots, tuple(kernel)


def solve_field(field: LocalRing, A, b):
    """Solve A x = b over a field; returns one solution or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    pivots = _rref(rows, n)
    if any(not row[n].is_zero() for row in rows[len(pivots):]):
        return None
    x = [field.zero] * n
    for i, p in enumerate(pivots):
        x[p] = rows[i][n]
    return tuple(x)
