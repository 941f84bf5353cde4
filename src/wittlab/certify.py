"""The trusted checker: every certificate ``wittlab`` returns is judged here.

Builders construct certificates and this module judges them (McConnell,
Mehlhorn, Näher and Schweitzer, "Certifying algorithms", 2011).  It imports
``rings`` and ``matrices``' ``mat_det``, never a builder; the builders
import from it the loops they share with the checks, ``_b`` and
``int_mat_mul``.  Like ``_b``, ``check_congruence`` works on carrier
indices through the ring's tables, on the three grids a witness keeps.
It costs O(n^3) lookups, and it takes a determinant only when the target
is not a diagonal of units; ``mat_det`` costs O(n^3) on a unit
determinant and O(n^4) only on a non-unit one.  Once M^T A M = B is checked,
det(M)^2 det(A) = det(B), so det(M) is a unit whenever det(B) is, and a
diagonal B with unit entries has a unit determinant.  A chain needs no
determinant by the same argument: for M with columns v_1..v_n, pairwise
orthogonal with unit q-values, M^T A M is triangular with diagonal
q(v_1)..q(v_n), so det(M)^2 det(A) is a unit, and with it det(M).

``_b`` is one pass over the nonzero Gram entries, n on a diagonal space.
``verify_chain`` keeps no state but the vector set of the basis before:
a basis is judged only after that one passed, so it skips the q-values and
the pairs of distinct vectors the two share (``_check_orthobasis``), and a
later basis costs at most 2n - 1 evaluations of b, the first n(n+1)/2.  A
basis holding the vectors of an endpoint judged in full on the chain's
space costs none: the endpoints a caller made are judged once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import LocalRing
from .matrices import mat_det


def _b(space, x, y):
    """b(x, y) = sum x_i A_ij y_j as a carrier index, for vectors x and y of
    carrier indices, in one pass over the nonzero Gram entries of A."""
    add, mul = space.ring.add, space.ring.mul
    acc = 0
    for i, j, g in space._gram_entries:
        xi, yj = x[i], y[j]
        if xi and yj:
            acc = add[acc][mul[xi][g[yj]]]
    return acc


def _check_orthobasis(space, basis, prev=frozenset()):
    """(ok, message) for one ordered basis: n vectors of length n over the
    space's ring, each with unit q, pairwise orthogonal.

    The length and ring of each vector are checked in turn, so a wrong
    length is reported before a later vector's foreign entry raises
    RingError.  ``prev`` is the vector set of a basis that passed: each of
    its vectors has a unit q-value, and any two distinct ones are
    orthogonal.  So the q-value of a vector in ``prev`` and the pair of two
    distinct vectors both in ``prev`` are skipped; a repeated vector is
    still paired with itself, and fails since q(v) is a unit.  The other
    checks run in the order of a full check, and what is skipped has
    passed, so the first failure and its message do not depend on ``prev``.
    A basis that passes in full is marked ``_judged = (space, q-values)``.
    """
    n, ring = space.n, space.ring
    from_elements = basis._indices is None
    vectors = basis._vectors if from_elements else basis._indices
    if len(vectors) != n:
        return False, f"expected {n} vectors, got {len(vectors)}"
    for v in vectors:
        if len(v) != n:
            return False, "vector length does not match the space dimension"
        if from_elements:
            ring.check_elements(v)
    if from_elements:  # their ring is checked: fill the index tuples here
        basis._indices = tuple(tuple(e.data for e in v) for v in vectors)
    indices = basis._indices
    residue = ring.residue_of
    qs = []
    for i, v in enumerate(indices):
        kept = v in prev
        if not kept:
            qs.append(_b(space, v, v))
            if not residue[qs[-1]]:
                return False, f"vector {i} is not anisotropic"
        for j in range(i + 1, n):
            w = indices[j]
            if kept and w in prev and w != v:
                continue
            if _b(space, v, w):
                return False, f"vectors {i} and {j} are not orthogonal"
    if not prev:
        basis._judged = (space, tuple(qs))
    return True, "ok"


def verify_chain(chain, start, end):
    """Full certificate check; returns (ok, diagnostic).

    Every basis must be an orthogonal basis of the chain's space, checked
    against the basis before it (see ``_check_orthobasis``), or against an
    endpoint judged on this very space whose vectors it holds; consecutive
    bases must share at least n-2 vectors, and the first and last bases must
    hold the vectors of start and end, on the chain's space.  The overlap
    and endpoint tests compare sets of index tuples.
    """
    space = chain.space
    n = space.n
    judged = {frozenset(b._indices) for b in (start, end) if b._judged and b._judged[0] is space}
    sets = []
    for idx, basis in enumerate(chain.bases):
        if basis.space != space:
            return False, f"basis {idx} lives on a different space"
        known = basis._indices is not None and frozenset(basis._indices)
        prev = known if known in judged else sets[-1] if sets else frozenset()
        ok, msg = _check_orthobasis(space, basis, prev)
        if not ok:
            return False, f"basis {idx}: {msg}"
        sets.append(known or frozenset(basis.indices))
    for idx in range(len(sets) - 1):
        overlap = len(sets[idx] & sets[idx + 1])
        if overlap < n - 2:
            return False, (
                f"step {idx} -> {idx + 1} replaces more than two vectors "
                f"(overlap {overlap} < {n - 2})"
            )
    for vectors, basis, which in ((sets[0], start, "start"), (sets[-1], end, "end")):
        # index tuples alone cannot tell an endpoint on another space apart
        if basis.space != space or vectors != frozenset(basis.indices):
            return False, f"chain does not {which} at the requested basis"
    return True, "ok"


def check_congruence(ring: LocalRing, source, target, matrix):
    """(ok, message) for a witness M of source A and target B, all tuples of
    row tuples of carrier indices of ``ring``: square of one size,
    M^T A M = B, det M a unit.

    M^T A M is formed a column of A M at a time: entry (i, j) is column i
    of M dotted with column j of A M, each product skipping the zero
    entries, so the check costs O(n^3) table lookups.  ``mat_det`` runs
    only when B is not a diagonal of units: once M^T A M = B holds,
    det(M)^2 det(A) = det(B), so a unit det(B) makes det(M) a unit."""
    n = len(matrix)
    for grid in (source, target, matrix):
        if len(grid) != n or any(len(row) != n for row in grid):
            return False, "source, target and matrix must be square matrices of one size"
    add, mul = ring.add, ring.mul
    sparse_source = [[(k, mul[x]) for k, x in enumerate(row) if x] for row in source]
    columns = list(zip(*matrix))
    for j, column in enumerate(columns):
        # column j of A M, as (row, product row) pairs of its nonzero entries
        entries = (_sparse_dot(add, row, column) for row in sparse_source)
        moved = [(k, mul[x]) for k, x in enumerate(entries) if x]
        for i, other in enumerate(columns):
            if _sparse_dot(add, moved, other) != target[i][j]:
                return False, "M^T A M differs from the target"
    if _is_unit_diagonal(ring, target):
        return True, "ok"
    elems = ring.elems
    if not mat_det(ring, [[elems[x] for x in row] for row in matrix]).is_unit():
        return False, "witness determinant is not a unit"
    return True, "ok"


def _is_unit_diagonal(ring, grid):
    """Whether a square grid of carrier indices is diagonal with units on
    its diagonal."""
    residue = ring.residue_of
    return all(
        residue[row[i]] and not any(row[:i]) and not any(row[i + 1:])
        for i, row in enumerate(grid)
    )


def _sparse_dot(add, sparse, y):
    """sum g[y_k] over the (k, product row g) pairs of ``sparse``, as an index."""
    acc = 0
    for k, g in sparse:
        yk = y[k]
        if yk:
            acc = add[acc][g[yk]]
    return acc


@dataclass
class CheckResult:
    ok: bool
    reason: str = "ok"

    def __bool__(self):
        return self.ok


def check_representation_identity(a, b, c, d, x, y, s, t, f) -> CheckResult:
    """Exact check of f = c((asx+bty)/c)^2 + d((tx-sy)/c)^2.

    Preconditions (violations are reported, not raised): a, b units,
    c = a x^2 + b y^2 a unit, d = abc, f = a s^2 + b t^2.
    """
    if not a.is_unit() or not b.is_unit():
        return CheckResult(False, "a and b must be units")
    if not c.is_unit():
        return CheckResult(False, "c must be a unit")
    if c != a * x * x + b * y * y:
        return CheckResult(False, "c != a*x^2 + b*y^2")
    if d != a * b * c:
        return CheckResult(False, "d != a*b*c")
    if f != a * s * s + b * t * t:
        return CheckResult(False, "f != a*s^2 + b*t^2")
    ci = c.inv()
    p = (a * s * x + b * t * y) * ci
    r = (t * x - s * y) * ci
    if f == c * p * p + d * r * r:
        return CheckResult(True)
    return CheckResult(False, "identity failed")


def int_mat_mul(A, B):
    """A * B, summing over the nonzero entries of each row of A and of B;
    the unimodular transforms this checks are mostly zeros."""
    if not A or not B:
        return []
    sparse_B = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    product = []
    for row in A:
        acc = [0] * len(B[0])
        for a, b_row in zip(row, sparse_B):
            if a:
                for j, b in b_row:
                    acc[j] += a * b
        product.append(acc)
    return product


def int_det(M):
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: after step k every entry is a (k+1)-minor, so each division
    by the previous pivot is exact."""
    A, sign, prev = [list(row) for row in M], 1, 1
    for k in range(len(A) - 1):
        swap = next((i for i in range(k, len(A)) if A[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            A[k], A[swap], sign = A[swap], A[k], -sign
        pivot, tail = A[k][k], A[k][k + 1:]
        for row in A[k + 1:]:
            f = row[k]
            if f or pivot != prev:  # else the step leaves the row as it is
                row[k + 1:] = [(a * pivot - f * b) // prev for a, b in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * A[-1][-1] if A else 1


def _is_unimodular(M):
    return all(len(row) == len(M) for row in M) and abs(int_det(M)) == 1


def check_smith(form, A) -> bool:
    """U A V = diag(d_1..d_r) for the integer matrix A, with U and V
    unimodular and each d_i dividing d_{i+1}."""
    got = int_mat_mul(int_mat_mul(form.U, A), form.V)
    for i in range(form.rows):
        for j in range(form.cols):
            expected = form.diag[i] if i == j and i < len(form.diag) else 0
            if got[i][j] != expected:
                return False
    if not (_is_unimodular(form.U) and _is_unimodular(form.V)):
        return False
    for a, b in zip(form.diag, form.diag[1:]):
        if b % a != 0:
            return False
    return True


def relations_vanish(structure, rows) -> bool:
    """Every relation row has zero coordinates under the structure's map."""
    return all(structure.is_zero(structure.coords_of_row(row)) for row in rows)
