"""Inner product spaces as Gram matrices over a finite local ring.

A space is a symmetric matrix with unit determinant.  Every structural
statement made by this module is certified: congruences carry an explicit
witness matrix M with M^T A M = B, which `certify.check_congruence` verifies
by exact recomputation on carrier indices.  Each witness is checked once, at
the public entry point that returns it; the private cores behind
`diagonalize` and `resolve_block` return unchecked columns and matrices, so
`stable_diagonalize` composes them and checks only its final witness, made
from its index grids by `CongruenceWitness._of` (as are those of
`diagonalize` and `is_isometric`).
`certify._b` (behind `eval_b`), `_gram_row` and `_lincomb` work on vectors
of carrier indices through the ring's tables (see `rings`), as do the chain
engine (see `chains`) and the elimination behind `diagonalize`, which
updates the Gram matrix of its current basis in place and so never
evaluates b on ambient vectors.

Exhaustive searches share one limit policy.  None runs where |R|^n exceeds
`SEARCH_SPACE_CAP`: `is_isometric` answers "unknown" at once, and
`chains.bfs_chain_oracle` and `chains.all_orthogonal_bases` raise
`BudgetExceededError`.  Running out of a budget of candidate vectors
(`ISOMETRY_BUDGET`, `chains.BFS_CANDIDATE_BUDGET`) is "unknown" too, never
a "no".  The cap is read through this module, so patching
`bilinear.SEARCH_SPACE_CAP` reaches all.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .rings import LocalRing, NonUnitError, RingElement
from . import matrices as mx
# CheckResult and check_representation_identity are part of this module's API
from .certify import CheckResult, _b, check_congruence, check_representation_identity


SEARCH_SPACE_CAP = 1 << 16
ISOMETRY_BUDGET = 400_000


class BilinearError(Exception):
    pass


class DimensionMismatchError(BilinearError):
    pass


class DegenerateError(BilinearError):
    """Gram determinant is not a unit."""


class DegenerateSubspaceError(BilinearError):
    """The restriction of the form to the given vectors is degenerate."""


class NotInMaximalIdealError(BilinearError):
    pass


class BilinearSpace:
    """(R^n, b) with b(x, y) = x^T A y for a symmetric unit-determinant A."""

    def __init__(self, ring: LocalRing, gram):
        self.ring = ring
        self.gram = tuple(tuple(row) for row in gram)
        self.n = len(self.gram)
        for row in self.gram:
            if len(row) != self.n:
                raise DimensionMismatchError("Gram matrix must be square")
        ring.check_elements(e for row in self.gram for e in row)
        if self.gram != mx.mat_transpose(self.gram):
            raise BilinearError("Gram matrix must be symmetric")
        self.det = mx.mat_det(ring, self.gram)
        if self.n and not self.det.is_unit():
            raise DegenerateError(f"det = {self.det!r} is not a unit of {ring.spec}")
        self._q_buckets = self._reduced = None
        # the nonzero Gram entries of each row, as (column, product row)
        # pairs: mul[g] of the entry g, so that mul[g][y] is g * y
        mul = ring.mul
        self._sparse_rows = tuple(
            tuple((j, mul[g.data]) for j, g in enumerate(row) if g.data) for row in self.gram
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def diagonal(cls, ring: LocalRing, entries) -> "BilinearSpace":
        entries = tuple(entries)
        zero = ring.zero
        gram = tuple(
            tuple(entries[i] if i == j else zero for j in range(len(entries)))
            for i in range(len(entries))
        )
        return cls(ring, gram)

    @classmethod
    def hyperbolic(cls, ring: LocalRing) -> "BilinearSpace":
        z, one = ring.zero, ring.one
        return cls(ring, ((z, one), (one, z)))

    def orthogonal_sum(self, other: "BilinearSpace") -> "BilinearSpace":
        if other.ring != self.ring:
            raise BilinearError("summands must live over the same ring")
        z = self.ring.zero
        n, m = self.n, other.n
        gram = [row + (z,) * m for row in self.gram] + [(z,) * n + row for row in other.gram]
        return BilinearSpace(self.ring, gram)

    # -- evaluation ----------------------------------------------------------

    def eval_b(self, x, y) -> RingElement:
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatchError(f"vectors must have length {self.n}")
        return self.ring.elems[_b(self, [e.data for e in x], [e.data for e in y])]

    def eval_q(self, x) -> RingElement:
        return self.eval_b(x, x)

    # -- helpers -------------------------------------------------------------

    def standard_basis(self):
        one, zero = self.ring.one, self.ring.zero
        return tuple(
            tuple(one if i == j else zero for j in range(self.n))
            for i in range(self.n)
        )

    def zero_vector(self):
        return (self.ring.zero,) * self.n

    def _vectors_by_q(self):
        """q-value index -> the index tuples of R^n with that value, in
        carrier order; R^n is enumerated once per n and kept on the ring."""
        if self._q_buckets is None:
            ring, n = self.ring, self.n
            vectors = ring.cached(
                ("vectors", n), lambda: tuple(itertools.product(range(ring.size), repeat=n))
            )
            self._q_buckets = {}
            for v in vectors:
                self._q_buckets.setdefault(_b(self, v, v), []).append(v)
        return self._q_buckets

    def reduce(self) -> "BilinearSpace":
        """The induced space over the residue field, built on the first call."""
        if self._reduced is None:
            gram = tuple(tuple(self.ring.reduce(e) for e in row) for row in self.gram)
            self._reduced = BilinearSpace(self.ring.residue_field(), gram)
        return self._reduced

    def reduce_vector(self, v):
        return tuple(self.ring.reduce(c) for c in v)

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.gram]

    @classmethod
    def from_json(cls, ring: LocalRing, obj) -> "BilinearSpace":
        gram = tuple(tuple(ring.element_from_json(e) for e in row) for row in obj)
        return cls(ring, gram)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, BilinearSpace)
            and self.ring == other.ring
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.ring.spec, tuple(tuple(e.data for e in row) for row in self.gram)))

    def __repr__(self):
        return f"BilinearSpace({self.ring.spec}, n={self.n})"


class CongruenceWitness:
    """Invertible M with M^T * source * M = target, checked exactly.

    The three grids are kept as tuples of row tuples of carrier indices,
    the form ``certify.check_congruence`` checks.  ``source``, ``target``
    and ``matrix`` read them as elements, built on first read for a witness
    made from indices.  The constructor takes element grids and checks
    their ring; ``_of`` takes the index grids the builders already hold.
    Either way the witness is checked once, when it is made."""

    def __init__(self, ring: LocalRing, source, target, matrix):
        grids = [tuple(tuple(row) for row in grid) for grid in (source, target, matrix)]
        for grid in grids:
            ring.check_elements(e for row in grid for e in row)
        self.ring, self._grids = ring, grids
        self._indices = tuple(_data(grid) for grid in grids)
        ok, msg = self.check()
        if not ok:
            raise BilinearError(f"invalid congruence witness: {msg}")

    @classmethod
    def _of(cls, ring: LocalRing, source, target, matrix) -> "CongruenceWitness":
        """The witness of index grids (tuples of row tuples), checked."""
        witness = cls.__new__(cls)
        witness.ring, witness._grids = ring, [None] * 3
        witness._indices = (source, target, matrix)
        ok, msg = witness.check()
        if not ok:
            raise BilinearError(f"invalid congruence witness: {msg}")
        return witness

    def _grid(self, k):
        grid = self._grids[k]
        if grid is None:
            elems = self.ring.elems
            grid = self._grids[k] = tuple(tuple(elems[x] for x in row) for row in self._indices[k])
        return grid

    source = property(lambda self: self._grid(0))
    target = property(lambda self: self._grid(1))
    matrix = property(lambda self: self._grid(2))

    def check(self):
        return check_congruence(self.ring, *self._indices)

    def inverse(self) -> "CongruenceWitness":
        Minv = mx.mat_inverse(self.ring, self.matrix)
        return CongruenceWitness(self.ring, self.target, self.source, Minv)

    def to_json(self):
        return {
            "source": [[e.to_json() for e in row] for row in self.source],
            "target": [[e.to_json() for e in row] for row in self.target],
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, ring: LocalRing, obj) -> "CongruenceWitness":
        def grid(key):
            return tuple(tuple(ring.element_from_json(e) for e in row) for row in obj[key])

        return cls(ring, grid("source"), grid("target"), grid("matrix"))


@dataclass
class DecompositionReport:
    units: tuple          # unit diagonal entries u_1..u_l
    blocks: tuple         # residual pairs (a_i, b_i), both in the maximal ideal
    witness: CongruenceWitness

    @property
    def l(self):
        return len(self.units)

    @property
    def r(self):
        return len(self.blocks)


def _block_diagonal_gram(units, blocks):
    """diag(units) with trailing blocks [[a,1],[1,b]], as carrier indices,
    for units and block entries given as elements."""
    n = len(units) + 2 * len(blocks)
    rows = [[0] * n for _ in range(n)]
    for i, u in enumerate(units):
        rows[i][i] = u.data
    off = len(units)
    for k, (a, b) in enumerate(blocks):
        i = off + 2 * k
        rows[i][i] = a.data
        rows[i][i + 1] = rows[i + 1][i] = 1
        rows[i + 1][i + 1] = b.data
    return tuple(tuple(r) for r in rows)


def _gram_row(space: BilinearSpace, w):
    """The row w^T A as a list of carrier indices, for a vector w of carrier
    indices, in one pass over the nonzero Gram entries of each row of A."""
    add = space.ring.add
    acc = [0] * space.n
    for wd, row in zip(w, space._sparse_rows):
        if not wd:
            continue
        for j, g in row:
            acc[j] = add[acc[j]][g[wd]]
    return acc


@functools.cache
def _standard_basis(n):
    """The standard basis as index tuples (zero and one are 0 and 1), built
    once per n."""
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def _data(grid):
    """A grid of elements as a tuple of row tuples of carrier indices."""
    return tuple(tuple(e.data for e in row) for row in grid)


def _lincomb(ring, vectors, coeffs):
    """sum c_i v_i, for vectors v_i and coefficients c_i of carrier indices."""
    add, mul = ring.add, ring.mul
    acc = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            row = mul[c]
            for i, a in enumerate(v):
                acc[i] = add[acc[i]][row[a]]
    return tuple(acc)


def orthogonal_complement(space: BilinearSpace, W):
    """Basis of {x : b(x, w) = 0 for all w in W}.

    When the restriction of b to span(W) is non-degenerate the result is a
    complement: together with W it spans the whole module.  The weaker cases
    that still admit a unit-pivot elimination (e.g. an isotropic vector over
    a field) return the null space alone.
    """
    W = [tuple(w) for w in W]
    for w in W:
        if len(w) != space.n:
            raise DimensionMismatchError("vectors must match the space dimension")
    try:
        kernel = _complement(space, [[e.data for e in w] for w in W])
    except mx.SingularMatrixError as exc:
        raise DegenerateSubspaceError(str(exc))
    return tuple(tuple(space.ring.elems[d] for d in v) for v in kernel)


def _complement(space, W):
    """``orthogonal_complement`` for vectors of carrier indices, unchecked."""
    return mx.Echelon(space.ring, space.n, (_gram_row(space, w) for w in W)).kernel()


def _complement_within(space, basis, chosen):
    """Complement of `chosen` inside span(basis), as ambient vectors.

    Both inputs are tuples of ambient vectors of carrier indices; the
    restriction of b to span(chosen) must be non-degenerate.
    """
    rows = ([_b(space, c, v) for v in basis] for c in chosen)
    kernel = mx.Echelon(space.ring, len(basis), rows).kernel()
    return tuple(_lincomb(space.ring, basis, coeffs) for coeffs in kernel)


def _anisotropic_pivot(ring, G):
    """Positions of the basis vectors whose sum is the first vector of unit
    q-value in the order of a carrier scan over coordinate tuples (the first
    coordinate most significant, 0 and 1 the first carrier elements), for
    the Gram matrix G of a basis in carrier indices: (i,) for the first i
    with G_ii a unit, else (a, j) for the first pair a < j with G_aj a unit
    when a and j both run downward; None when no vector has a unit q-value.

    When every G_ii is in the maximal ideal, q(sum c_i v_i) is
    2 * sum_{i<k} c_i c_k G_ik modulo the ideal.  In residue characteristic 2
    that is in the ideal, so no vector qualifies.  Otherwise the first
    tuple's leading nonzero slot is the last a that pairs to a unit with a
    later vector, and its only other nonzero slot is the last such j.
    """
    residue = ring.residue_of
    for i, row in enumerate(G):
        if residue[row[i]]:
            return (i,)
    if ring.residue_field().size % 2 == 0:
        return None
    for a in reversed(range(len(G))):
        row = G[a]
        for j in reversed(range(a + 1, len(G))):
            if residue[row[j]]:
                return (a, j)
    return None


def _eliminate(ring, G, basis, r):
    """One congruence elimination step, in place on `basis` (ambient index
    tuples v_f) and on G, its Gram matrix (lists of carrier indices).

    r is the row (b(p, v_f))_f of a vector p of the span, with c its first
    unit column: v_c goes, each other v_f becomes w_f = v_f - alpha_f v_c
    with alpha = r / r_c, and G becomes the Gram matrix of the w_f, so
    b(w_f, w_g) = G_fg - alpha_g G_fc - alpha_f G_cg + alpha_f alpha_g G_cc:
    a row step R_f = G_f - alpha_f G_c, then a column step
    R_fg - alpha_g R_fc.  Returns (b(w_f, v_c))_f, which is R_fc.
    """
    add, mul, neg, residue = ring.add, ring.mul, ring.neg, ring.residue_of
    c = next(f for f, x in enumerate(r) if residue[x])
    scale = mul[ring._rinv(r[c])]
    alpha = [scale[x] for x in r]
    del alpha[c]
    vc, gc = basis.pop(c), G.pop(c)
    pivot_col = []
    for f, a in enumerate(alpha):
        row = G[f]
        if a:
            s = mul[neg[a]]
            basis[f] = tuple([add[x][s[y]] for x, y in zip(basis[f], vc)])
            row = [add[x][s[y]] for x, y in zip(row, gc)]
        k = row.pop(c)
        pivot_col.append(k)
        if k:
            s = mul[neg[k]]
            row = [add[x][s[y]] for x, y in zip(row, alpha)]
        G[f] = row
    return pivot_col


def _diagonalize(space: BilinearSpace):
    """Unchecked core of `diagonalize`: (units, blocks, unit_cols,
    block_cols), where unit_cols[i] has q-value units[i] and the pair
    block_cols[k] = (x, y) spans the block [[a,1],[1,b]] of blocks[k];
    the columns are index tuples.

    Symmetric elimination on the current basis, starting from the standard
    one, and on G, its Gram matrix in basis coordinates (`_eliminate`).  A
    pivot p from `_anisotropic_pivot` is split off with the row r = G_i, or
    G_a + G_j for p = v_a + v_j, and q(p) = r_i, or r_a + r_j.  When every
    G_ii and (in odd residue characteristic) every G_aj is in the maximal
    ideal, the first pair (i, j) in `combinations` order with G_ij a unit
    gives x = v_i and y = v_j / G_ij, split off by two steps: on r = G_i,
    then on the row of v_j over the new basis.  The first unit column of G_i
    is j, since the pairs before (i, j) and G_ii are in the ideal.

    Each step leaves the basis that ``Echelon(...).kernel()`` gives for the
    rows of the chosen vectors on the current basis, which is the
    orthogonal complement of those vectors inside its span.  For the one
    row r, Echelon scales r by 1 / r_c at its first unit column c and gives,
    for each free column f in increasing order, the vector with 1 at f, 0
    at the other free columns and -r_f / r_c at c: the coordinates of w_f.
    For the rows of x and y, a kernel vector of Echelon is the only vector
    of the kernel with its coordinates on the free columns, since the
    reduced rows fix those at the pivots.  The first step pivots on j; the
    row of y reduced on it is, at f != j, (G_jf - alpha_f G_jj) / G_ij =
    b(y, w_f), so the second step pivots where Echelon's second row does,
    and its vectors lie in the kernel of both rows with 1 at f and 0 at the
    other free columns.  So both give the same vectors in the same order.
    """
    ring = space.ring
    add, mul, elems = ring.add, ring.mul, ring.elems
    G = [[e.data for e in row] for row in space.gram]
    basis = list(_standard_basis(space.n))
    units: list = []
    unit_cols: list = []
    blocks: list = []
    block_cols: list = []
    while G:
        pivot = _anisotropic_pivot(ring, G)
        if pivot is not None:
            if len(pivot) == 1:
                i, = pivot
                r, q, p = G[i], G[i][i], basis[i]
            else:
                a, j = pivot
                r = [add[x][y] for x, y in zip(G[a], G[j])]
                q, p = add[r[a]][r[j]], _lincomb(ring, (basis[a], basis[j]), (1, 1))
            units.append(elems[q])
            unit_cols.append(p)
            _eliminate(ring, G, basis, r)
            continue
        # every q-value in the maximal ideal: split off a rank-2 block
        pair = next((
            (i, j) for i, j in itertools.combinations(range(len(G)), 2)
            if ring.residue_of[G[i][j]]
        ), None)
        if pair is None:
            raise DegenerateError("no unit pairing found; form is degenerate")
        i, j = pair
        inv = ring._rinv(G[i][j])
        x, y = basis[i], _lincomb(ring, (basis[j],), (inv,))
        blocks.append((elems[G[i][i]], elems[mul[mul[inv][inv]][G[j][j]]]))
        block_cols.append((x, y))
        _eliminate(ring, G, basis, _eliminate(ring, G, basis, G[i]))
    for a, b in blocks:
        if a.is_unit() or b.is_unit():
            raise BilinearError("residual block entries must be in the maximal ideal")
    return tuple(units), tuple(blocks), unit_cols, block_cols


def diagonalize(space: BilinearSpace):
    """Split off unit-valued lines, then residual rank-2 blocks.

    Returns (DecompositionReport, CongruenceWitness); the witness conjugates
    the Gram matrix to diag(u_1..u_l) with trailing blocks [[a,1],[1,b]],
    a, b in the maximal ideal.
    """
    ring = space.ring
    units, blocks, unit_cols, block_cols = _diagonalize(space)
    cols = unit_cols + [v for pair in block_cols for v in pair]
    target = _block_diagonal_gram(units, blocks)
    witness = CongruenceWitness._of(ring, _data(space.gram), target, tuple(zip(*cols)))
    return DecompositionReport(units, blocks, witness), witness


def _resolve_block(ring: LocalRing, a: RingElement, b: RingElement):
    """Unchecked core of `resolve_block`: ((u1, u2, u3), M) with M the 3x3
    matrix taking [[a,1],[1,b]] + <-1> to diag(u1, u2, u3)."""
    one = ring.one
    z = ring.zero
    m1 = ring.minus_one
    ia = (m1 + a).inv()   # 1/(-1+a)
    ib = (m1 + b).inv()
    u1 = (one - a * b) * ia * ib
    u2 = m1 + a
    u3 = m1 + b
    # transpose of the explicit 3x3 row matrix from the construction
    P = (
        (-ia, -ib, (m1 + a * b) * ia * ib),
        (m1, z, one),
        (z, m1, one),
    )
    return (u1, u2, u3), mx.mat_transpose(P)


def resolve_block(ring: LocalRing, a: RingElement, b: RingElement):
    """Resolve [[a,1],[1,b]] + <-1> into three unit-diagonal lines.

    Returns ((u1, u2, u3), witness) where the witness conjugates the block
    Gram matrix (with a trailing -1) to diag(u1, u2, u3) exactly.
    """
    if a.is_unit() or b.is_unit():
        raise NotInMaximalIdealError("block entries must lie in the maximal ideal")
    (u1, u2, u3), M = _resolve_block(ring, a, b)
    one, z, m1 = ring.one, ring.zero, ring.minus_one
    source = (
        (a, one, z),
        (one, b, z),
        (z, z, m1),
    )
    target = ((u1, z, z), (z, u2, z), (z, z, u3))
    return (u1, u2, u3), CongruenceWitness(ring, source, target, M)


def stable_diagonalize(space: BilinearSpace):
    """Adjoin r copies of <-1> so the sum becomes diagonal.

    Returns (diagonal_units, r, witness) where the witness conjugates
    A + (-1) I_r to diag(diagonal_units); r is the number of residual
    blocks of diagonalize(space).  The witness has one column per unit line
    of the diagonalization, padded with r zeros, and three per block k: the
    columns of (x_k, y_k, e_{n+k}) times that block's resolve matrix.
    """
    ring = space.ring
    n = space.n
    units, blocks, unit_cols, block_cols = _diagonalize(space)
    r = len(blocks)
    pad = (0,) * r
    cols = [v + pad for v in unit_cols]
    diag_units = list(units)
    for k, ((a, b), (x, y)) in enumerate(zip(blocks, block_cols)):
        block_units, B = _resolve_block(ring, a, b)
        diag_units.extend(block_units)
        e = (0,) * (n + k) + (1,) + (0,) * (r - k - 1)
        vecs = (x + pad, y + pad, e)
        cols.extend(_lincomb(ring, vecs, [c.data for c in coeffs]) for coeffs in zip(*B))
    m1 = ring.neg[1]
    source = tuple(row + pad for row in _data(space.gram)) + tuple(
        (0,) * (n + k) + (m1,) + (0,) * (r - k - 1) for k in range(r)
    )
    target = _block_diagonal_gram(diag_units, ())
    return tuple(diag_units), r, CongruenceWitness._of(ring, source, target, tuple(zip(*cols)))


@dataclass
class IsometryResult:
    status: str                      # "isometric" | "not_isometric" | "unknown"
    witness: CongruenceWitness | None = None

    def __bool__(self):
        return self.status == "isometric"


def is_isometric(s1: BilinearSpace, s2: BilinearSpace) -> IsometryResult:
    """Backtracking search for M with M^T A2 M = A1.

    Basis vectors of s1 are mapped to s2-vectors of equal q-value with
    matching pairings, candidates taken in carrier order.  "not_isometric"
    is only returned once the search has exhausted all candidates.  The
    answer is "unknown" at once when |R|^n exceeds `SEARCH_SPACE_CAP`, and
    once more than `ISOMETRY_BUDGET` candidates have been tried.
    """
    if s1.ring != s2.ring:
        raise BilinearError("spaces must live over the same ring")
    if s1.n != s2.n:
        raise DimensionMismatchError("spaces must have equal dimension")
    n, ring = s1.n, s1.ring
    if n == 0:
        return IsometryResult("isometric", CongruenceWitness._of(ring, (), (), ()))
    if ring.size ** n > SEARCH_SPACE_CAP:
        return IsometryResult("unknown")
    by_q = s2._vectors_by_q()
    spent = 0
    chosen: list = []

    def extend(i: int) -> str:
        nonlocal spent
        if i == n:
            return "found"
        for v in by_q.get(s1.gram[i][i].data, ()):
            spent += 1
            if spent > ISOMETRY_BUDGET:
                return "budget"
            if any(_b(s2, w, v) != s1.gram[j][i].data for j, w in enumerate(chosen)):
                continue
            chosen.append(v)
            res = extend(i + 1)
            if res != "fail":
                return res
            chosen.pop()
        return "fail"

    res = extend(0)
    if res == "found":
        witness = CongruenceWitness._of(ring, _data(s2.gram), _data(s1.gram), tuple(zip(*chosen)))
        return IsometryResult("isometric", witness)
    if res == "budget":
        return IsometryResult("unknown")
    return IsometryResult("not_isometric")


def steinberg_witness(ring: LocalRing, a: RingElement) -> CongruenceWitness:
    """diag(a, 1-a) = diag(1, a(1-a)) via the explicit 2x2 matrix."""
    one = ring.one
    if not a.is_unit() or not (one - a).is_unit():
        raise NonUnitError("both a and 1-a must be units")
    z = ring.zero
    b = one - a
    source = ((a, z), (z, b))
    target = ((one, z), (z, a * b))
    M = ((one, b), (-one, a))
    return CongruenceWitness(ring, source, target, M)


def hyperbolic_scaling_witness(ring: LocalRing, u: RingElement) -> CongruenceWitness:
    """[[0,1],[1,0]] = u * [[0,1],[1,0]] via the explicit 2x2 matrix."""
    if not u.is_unit():
        raise NonUnitError("scaling factor must be a unit")
    z, one = ring.zero, ring.one
    source = ((z, one), (one, z))
    target = ((z, u), (u, z))
    M = ((z, u), (one, z))
    return CongruenceWitness(ring, source, target, M)
