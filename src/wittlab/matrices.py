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
    ring = x.ring
    radd, rmul = ring._radd, ring._rmul
    acc = rmul(x.data, y.data)
    for x, y in it:
        acc = radd(acc, rmul(x.data, y.data))
    return RingElement(ring, acc)


def mat_det(ring: LocalRing, A) -> RingElement:
    """Determinant by expansion over column subsets (exact over any ring)."""
    n = len(A)
    if n == 0:
        return ring.one
    radd, rmul, rneg, zero = ring._radd, ring._rmul, ring._rneg, ring._zero_data()
    # dp over (row index, frozenset of used columns) via bitmask layers, on
    # element data
    prev = {0: ring._one_data()}
    for row in A:
        cur: dict = {}
        for mask, val in prev.items():
            sign_base = 0
            for j, a in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    sign_base += 1
                    continue
                if a.data == zero:
                    continue
                term = rmul(val, a.data)
                if sign_base % 2:
                    term = rneg(term)
                key = mask | bit
                if key in cur:
                    cur[key] = radd(cur[key], term)
                else:
                    cur[key] = term
        prev = cur
        if not prev:
            return ring.zero
    return RingElement(ring, prev.get((1 << n) - 1, zero))


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
    first ncols columns and return the pivot columns.  The elimination runs
    on element data; the rows get new elements at the end.

    Each column takes the first row at or below the current rank whose entry
    is a unit as its pivot; columns without one are skipped.  Over a field a
    unit is any nonzero entry, so this is plain Gauss-Jordan there.
    """
    m = len(rows)
    pivots: list[int] = []
    if not m or not ncols:
        return pivots
    ring = rows[0][0].ring
    radd, rmul, rneg, zero = ring._radd, ring._rmul, ring._rneg, ring._zero_data()
    data = [[c.data for c in row] for row in rows]
    for col in range(ncols):
        rank = len(pivots)
        for pivot in range(rank, m):
            if ring._runit(data[pivot][col]):
                break
        else:
            continue
        data[rank], data[pivot] = data[pivot], data[rank]
        inv = ring._rinv(data[rank][col])
        prow = data[rank] = [rmul(inv, c) for c in data[rank]]
        for r in range(m):
            f = data[r][col]
            if r == rank or f == zero:
                continue
            nf = rneg(f)
            data[r] = [radd(c, rmul(nf, p)) for c, p in zip(data[r], prow)]
        pivots.append(col)
    rows[:] = [[RingElement(ring, d) for d in row] for row in data]
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
