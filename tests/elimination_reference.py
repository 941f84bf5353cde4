"""A reference elimination for the tests, independent of ``matrices.Echelon``.

Column-major Gauss-Jordan on RingElement arithmetic: each column takes the
first row at or below the current rank whose entry is a unit as its pivot,
and columns without one are skipped.  Over a local ring the pivot set and
the reduced form do not depend on the order of the rows, so this and the
library's row-at-a-time echelon form must agree exactly.

``diagonalize_core`` is the recursive diagonalization that the in-place
elimination of ``bilinear._diagonalize`` replaced, kept as its reference:
it evaluates b on ambient vectors and takes each orthogonal complement
through ``bilinear._complement_within`` (and so ``Echelon``).
"""

import itertools

from wittlab.bilinear import (
    BilinearError, DegenerateError, _complement_within, _lincomb, _standard_basis,
)
from wittlab.certify import _b
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


def _find_anisotropic(space, basis):
    """First vector of span(basis) with unit q-value in the order of a
    carrier scan over coefficient tuples: a vector of `basis`, else
    basis[a] + basis[j] for the first pair (a, j), a < j, with a unit
    pairing when a and j both run downward (none in residue
    characteristic 2).  Vectors are index tuples."""
    ring = space.ring
    residue = ring.residue_of
    for v in basis:
        if residue[_b(space, v, v)]:
            return v
    if ring.residue_field().size % 2 == 0:
        return None
    for a in reversed(range(len(basis))):
        for j in reversed(range(a + 1, len(basis))):
            if residue[_b(space, basis[a], basis[j])]:
                return _lincomb(ring, (basis[a], basis[j]), (1, 1))
    return None


def diagonalize_core(space):
    """The recursive form of ``bilinear._diagonalize``: split off a pivot
    or a block, then recurse on its orthogonal complement inside the
    current basis, evaluating b on ambient vectors throughout."""
    ring = space.ring
    residue, elems = ring.residue_of, ring.elems
    unit_cols: list = []
    block_cols: list = []
    blocks: list = []

    def rec(basis):
        if not basis:
            return
        pivot = _find_anisotropic(space, basis)
        if pivot is not None:
            unit_cols.append(pivot)
            rec(_complement_within(space, basis, (pivot,)))
            return
        pair = next((
            (i, j) for i, j in itertools.combinations(range(len(basis)), 2)
            if residue[_b(space, basis[i], basis[j])]
        ), None)
        if pair is None:
            raise DegenerateError("no unit pairing found; form is degenerate")
        x, w = basis[pair[0]], basis[pair[1]]
        y = _lincomb(ring, (w,), (ring._rinv(_b(space, x, w)),))
        blocks.append((elems[_b(space, x, x)], elems[_b(space, y, y)]))
        block_cols.append((x, y))
        rec(_complement_within(space, basis, (x, y)))

    rec(_standard_basis(space.n))
    for a, b in blocks:
        if a.is_unit() or b.is_unit():
            raise BilinearError("residual block entries must be in the maximal ideal")
    units = tuple(elems[_b(space, v, v)] for v in unit_cols)
    return units, tuple(blocks), unit_cols, block_cols
