"""Exact integer matrix normal forms for finitely presented abelian groups.

Everything works on plain Python ints (no overflow).  There are two
elimination routines.  `hnf_rows` returns the reduced Hermite basis of a row
lattice, which depends on the lattice alone; it also inverts unimodular
matrices (the right block of the Hermite basis of [A | I]).
`smith_normal_form` keeps both unimodular transforms so generator images
stay computable; relation lists are compressed by `hnf_rows` first, since
elementary integer row operations preserve the row lattice.  A Smith form is
judged by `certify.check_smith`, apart from both routines.
"""

from __future__ import annotations

from dataclasses import dataclass

# int_mat_mul is part of this module's API
from .certify import check_smith, int_mat_mul


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_inverse_unimodular(A):
    """Exact inverse of a square matrix with determinant +-1: the right block
    of the Hermite basis of [A | I], whose left block is I iff A is
    unimodular.  Raises ValueError otherwise."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    basis = hnf_rows([list(row) + e for row, e in zip(A, int_identity(n))], 2 * n)
    if [r[:n] for r in basis] != [tuple(e) for e in int_identity(n)]:
        raise ValueError("matrix is not unimodular")
    return [list(r[n:]) for r in basis]


def _sub_row(r, q, pivot, col):
    """r -= q * pivot, for a pivot row that is zero before column col."""
    if q:
        r[col:] = [a - q * b for a, b in zip(r[col:], pivot[col:])]


def hnf_rows(rows, width):
    """The reduced Hermite basis of the row lattice of `rows`: echelon rows
    with positive pivots, every entry above a pivot in [0, pivot).  Entries
    above a pivot are reduced when it is appended, and every later row is
    zero in its column.  This basis is unique (Cohen, GTM 138, 2.4.3), so it
    depends on the lattice alone, not on which rows generate it."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(width):
        live = [r for r in work if r[col]]
        while len(live) > 1:  # gcd-reduce the column onto one row
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    _sub_row(r, r[col] // pivot[col], pivot, col)
            live = [r for r in live if r[col]]
        if not live:
            continue
        pivot = live[0]
        if pivot[col] < 0:
            pivot[col:] = [-a for a in pivot[col:]]
        for r in basis:
            _sub_row(r, r[col] // pivot[col], pivot, col)
        basis.append(pivot)
        work = [r for r in work if r is not pivot and any(r)]
    return [tuple(r) for r in basis]


def solve_in_rowspace(basis, target):
    """Integer coefficients expressing target over echelon basis rows, or None."""
    t = list(target)
    coeffs = [0] * len(basis)
    width = len(t)
    for i, row in enumerate(basis):
        pcol = next((j for j in range(width) if row[j] != 0), None)
        if pcol is None:
            continue
        if t[pcol] % row[pcol] != 0:
            return None
        coeffs[i] = t[pcol] // row[pcol]
        _sub_row(t, coeffs[i], row, pcol)
    if any(t):
        return None
    return coeffs


@dataclass
class SmithNormalForm:
    diag: list          # nonzero invariant entries d_1 | d_2 | ...
    U: list             # unimodular, rows side
    V: list             # unimodular, columns side
    rows: int
    cols: int

    def verify(self, A):
        return check_smith(self, A)


def smith_normal_form(rows, width) -> SmithNormalForm:
    """U * A * V = diag(d_1..d_r) with d_i | d_{i+1}, U and V unimodular."""
    A = [list(r) for r in rows]
    m = len(A)
    n = width
    for r in A:
        if len(r) != n:
            raise ValueError("ragged matrix")
    U = int_identity(m)
    V = int_identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # locate a pivot of least absolute value in the remaining block
        pivot = min(
            ((i, j) for i in range(t, m) for j in range(t, n) if A[i][j]),
            key=lambda ij: abs(A[ij[0]][ij[1]]), default=None,
        )
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block
            offender = next((
                i for i in range(t + 1, m) if any(A[i][j] % A[t][t] for j in range(t + 1, n))
            ), None)
            if offender is None:
                break
            row_op(t, offender, -1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1

    diag = [A[i][i] for i in range(min(m, n)) if A[i][i] != 0]
    return SmithNormalForm(diag, U, V, m, n)
