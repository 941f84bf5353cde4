"""Small exact matrix routines over a local ring.

Matrices are tuples of row tuples of RingElement.  Everything here relies
on the local property: an invertible matrix always admits a unit pivot in
every elimination step (otherwise its determinant would sit in the maximal
ideal); ``mat_det`` eliminates on such pivots and, once a column has
none, finishes with a division-free determinant.  ``Echelon`` is the
elimination that solves: a unit-pivot reduced echelon form on element data
that grows a row at a time.  mat_inverse, kernel_basis and solve_field are
entry points over it, and the orthogonal complements of ``bilinear`` and
the residue lifts of ``chains`` use it directly.  Like ``_dot`` and
``mat_det``, it works on element data (carrier indices), its rows and
kernel vectors alike: it indexes the ring's ``add``/``mul`` tables and
``neg`` list directly (``rings``).
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
    ring = xs[0].ring
    add, mul = ring.add, ring.mul
    acc = 0
    for x, y in zip(xs, ys):
        acc = add[acc][mul[x.data][y.data]]
    return ring.elems[acc]


def mat_det(ring: LocalRing, A) -> RingElement:
    """Determinant by unit-pivot elimination on carrier indices.

    Over a local ring an entry is a unit iff its residue is nonzero, so
    while every column has a unit pivot this is O(n^3) lookups: the
    determinant is the signed product of the pivots, a row swap negates it
    and r_i -= f * r_k keeps it.  When column k has no unit at or below the
    pivot row, the block S left below and right of the pivots is a Schur
    complement and det A = (signed pivot product) * det S.  Then det A is
    not a unit: were it one, S would be invertible mod m, and the first
    column of S would hold a unit.  Such a value only names a degenerate
    determinant, so S is finished as it stands by ``_division_free_det``,
    O(n^4) lookups and exact over any commutative ring."""
    n = len(A)
    add, mul, neg, residue = ring.add, ring.mul, ring.neg, ring.residue_of
    rows = [[e.data for e in row] for row in A]
    det = 1
    for k in range(n):
        for p in range(k, n):
            if residue[rows[p][k]]:
                break
        else:
            return ring.elems[mul[det][_division_free_det(ring, [row[k:] for row in rows[k:]])]]
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = neg[det]
        pivot = rows[k]
        det = mul[det][pivot[k]]
        inverse = None
        for row in rows[k + 1:]:
            a = row[k]
            if a:
                if inverse is None:
                    inverse = mul[ring._rinv(pivot[k])]
                scale = mul[neg[inverse[a]]]
                for j in range(k + 1, n):
                    row[j] = add[row[j]][scale[pivot[j]]]
    return ring.elems[det]


def _division_free_det(ring: LocalRing, rows) -> int:
    """The determinant of a square matrix A of carrier indices, as an index,
    with ring operations only (R. S. Bird, "A simple division-free algorithm
    for computing determinants", IPL 111, 2011): X_1 = A, X_{k+1} =
    mu(X_k) A, det A = (-1)^(n-1) (X_n)_11.  mu(X) keeps the strict upper
    triangle of X, holds -(X_{i+1,i+1} + ... + X_nn) at (i, i) and is zero
    below the diagonal.  O(n^4) lookups, skipping the zero entries of mu."""
    n = len(rows)
    add, mul, neg = ring.add, ring.mul, ring.neg
    X = rows
    for _ in range(n - 1):
        product = []
        trailing = 0
        for i in range(n - 1, -1, -1):
            # row i of mu(X) A; from column i on, row i of mu(X) is
            # -trailing, then X[i][i+1:]
            out = [0] * n
            for j, f in enumerate([neg[trailing]] + X[i][i + 1:], i):
                if f:
                    scale = mul[f]
                    out = [add[c][scale[a]] for c, a in zip(out, rows[j])]
            trailing = add[trailing][X[i][i]]
            product.append(out)
        X = product[::-1]
    return X[0][0] if n % 2 else neg[X[0][0]]


def congruent(M, A):
    """M^T * A * M."""
    Mt = mat_transpose(M)
    return mat_mul(Mt, mat_mul(A, M))


class Echelon:
    """Rows of element data in reduced echelon form over a local ring, grown
    one row at a time.

    Each kept row has a unit pivot among the first ``ncols`` columns, where
    it holds 1 and every other kept row holds 0; later columns (a right-hand
    side, an identity block) never pivot.  ``add`` reduces a row on the
    pivots so far and takes its first unit column as a new pivot, clearing
    that column from the older rows; a row with no unit goes to ``rest``.

    The result does not depend on the order of the rows.  An entry is a
    unit iff its residue is nonzero, and reduction commutes with the residue
    map, so the pivot set is the set of leading columns of the residue row
    space, whatever the order.  Given the module the kept rows span and the
    pivot set, the reduced form is unique: an element's coefficient on the
    row of pivot p is its entry in column p.  That module is the whole row
    module exactly when every rest row, reduced on the final pivots, is
    zero, and then it does not depend on the order either.
    """

    __slots__ = ("ring", "ncols", "rows", "pivots", "rest")

    def __init__(self, ring: LocalRing, ncols: int, rows=()):
        self.ring, self.ncols = ring, ncols
        self.rows: list = []
        self.pivots: list = []
        self.rest: list = []
        for row in rows:
            self.add(row)

    def _minus(self, row, f, prow):
        """row - f * prow, on element data."""
        ring = self.ring
        add, scale = ring.add, ring.mul[ring.neg[f]]
        return [add[c][scale[a]] for c, a in zip(row, prow)]

    def reduce(self, row):
        """row minus its entry at each pivot times that pivot's row."""
        for prow, p in zip(self.rows, self.pivots):
            if row[p]:
                row = self._minus(row, row[p], prow)
        return row

    def add(self, row):
        ring = self.ring
        row = self.reduce(row)
        residue = ring.residue_of
        col = next((j for j in range(self.ncols) if residue[row[j]]), None)
        if col is None:
            self.rest.append(row)
            return
        scale = ring.mul[ring._rinv(row[col])]
        row = [scale[c] for c in row]
        self.rows = [p if not p[col] else self._minus(p, p[col], row) for p in self.rows]
        self.rows.append(row)
        self.pivots.append(col)

    def kernel(self):
        """Basis of {x : row . x = 0 for every row added}, as index tuples:
        one vector per free column f, in increasing order, with 1 at f, 0 on
        the other free columns and -row[f] at each pivot.
        SingularMatrixError when a rest row reduced on the final pivots is
        not zero (the row span is not a free summand, e.g. a degenerate
        restriction)."""
        neg = self.ring.neg
        if any(any(self.reduce(row)) for row in self.rest):
            raise SingularMatrixError("row space has no unit pivot for a nonzero row")
        kernel = []
        for f in range(self.ncols):
            if f not in self.pivots:
                v = [0] * self.ncols
                v[f] = 1
                for row, p in zip(self.rows, self.pivots):
                    v[p] = neg[row[f]]
                kernel.append(tuple(v))
        return tuple(kernel)


def mat_inverse(ring: LocalRing, A):
    """Inverse of an invertible matrix via Gauss-Jordan with unit pivots."""
    n = len(A)
    ech = Echelon(ring, n, (
        [c.data for c in row] + [int(j == i) for j in range(n)] for i, row in enumerate(A)
    ))
    if len(ech.pivots) < n:
        raise SingularMatrixError("matrix is not invertible over the local ring")
    by_pivot = dict(zip(ech.pivots, ech.rows))
    return tuple(tuple(ring.elems[d] for d in by_pivot[p][n:]) for p in range(n))


def kernel_basis(ring: LocalRing, T):
    """(sorted pivot columns, basis of {x : T x = 0}); see ``Echelon.kernel``."""
    n = len(T[0]) if T else 0
    ech = Echelon(ring, n, ([c.data for c in row] for row in T))
    elems = ring.elems
    return sorted(ech.pivots), tuple(tuple(elems[d] for d in v) for v in ech.kernel())


def solve_field(field: LocalRing, A, b):
    """Solve A x = b over a field; returns one solution or None."""
    n = len(A[0]) if A else 0
    ech = Echelon(field, n, ([c.data for c in row] + [b[i].data] for i, row in enumerate(A)))
    if any(ech.reduce(row)[n] for row in ech.rest):
        return None
    x = [0] * n
    for row, p in zip(ech.rows, ech.pivots):
        x[p] = row[n]
    return tuple(field.elems[d] for d in x)
