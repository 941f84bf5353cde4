"""Chain equivalence of orthogonal bases, constructively.

Two orthogonal bases of an inner product space are chain equivalent when a
sequence of orthogonal bases connects them in which consecutive bases share
all but at most two vectors.  This module builds such chains as verifiable
certificates with one construction, a contraction loop.  A breadth-first
oracle over all orthogonal bases stays beside it as an independent
reference; no builder calls it.  Its budget counts the candidate vectors it
forms, since the cost of a node grows with |R|^2.

Over any finite local ring whose residue field is not F_2, one
minimal-support loop serves every dimension: it contracts the first target
vector into the current tuple pair by pair, then recurses on its complement
(``_contraction_loop``).  Its closed forms hold over any commutative ring,
so it runs over R itself.  Only the existence of a contractible pair
depends on 2.  Where 2 is a unit a pair always exists, as over the residue
field (Baeza, *Quadratic Forms over Semilocal Rings*, LNM 655), and a chain
has at most n(n-1)/2 + 1 bases.  In residue characteristic 2 one rotation
of two vectors makes a pair where none exists, and a chain has at most
n(n-1)/2 + 1 + 2(n-3) bases (n >= 3).  No square roots, hat basis or lift
are needed.

Builders evaluate b only for data they do not carry.  The contraction loop
and ``_equal_mod_m_core`` keep the q-values of their current tuple, and the
loop the coordinates of its target vector too, updated in closed form after
each replacement: a chain evaluates b sum_{k=3..n} k times, O(n^2), plus n
for the q-values of its start unless the checker judged it and kept them.

Over F_2 the chain lemma fails outright: every orthogonal basis is alone in
its chain component.  If u and v are orthogonal with q(u) = q(v) = 1 (the
only unit), then q(au + bv) = a + b, so u and v are the only anisotropic
vectors of their plane.  A step that replaces one or two vectors puts the
new ones in the plane of the old, so it gives back the same set.  Hence
two bases over F_2 (n >= 3) are chain equivalent iff they agree as sets,
and otherwise ``ChainUnreachableError`` is a proof.  Over residue F_2 it is
a proof too, since reduction maps a chain over R to a chain over F_2.  When
the residue bases do agree as sets, a permutation and one equal-mod-m chain
(``_equal_mod_m_core``) join the bases.

``lift_pair`` and ``lift_basis`` lift residue bases to R, one vector at a
time into the complement of the lifts before it, through one
``matrices.Echelon`` of their rows w^T A that grows by a row per lift.

Inside this module a vector is a tuple of carrier indices (see ``rings``):
builders and checker compute on them through the ring's tables and
``certify._b``, the loop behind ``BilinearSpace.eval_b``.  Elements are
built only where a vector leaves the library (``OrthogonalBasis.vectors``,
returned vectors, ``Chain.to_json``), and every public function that takes
elements checks their ring once, when it converts them.

Builders assemble their chains as index tuples through private cores and
wrap them in unchecked bases.  ``verify_chain``, from the checker module
``certify``, is the sole judge of chain certificates: every public builder
runs it exactly once, on the chain it returns, through this module's name,
and nothing inside a builder re-checks intermediate pieces.  Only
``_certified``, which verifies, and ``Chain.from_json``, whose chain the
caller judges, construct a ``Chain``.  The checker judges each basis
against the one before it, so a valid chain of k bases costs it at most
n(n+1)/2 + (k-1)(2n-1) evaluations of b, and (k-2)(2n-1) between judged
endpoints.

Chain entries are stored as ordered tuples; the overlap condition and
endpoint identity are evaluated on vector *sets*, matching the set
intersection in the definition.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field as dc_field

from . import bilinear, certify
from .certify import _b, verify_chain
from .rings import LocalRing, RingElement
from .matrices import Echelon
from .bilinear import (
    BilinearSpace,
    BilinearError,
    NotInMaximalIdealError,
    _complement,
    _complement_within,
    _gram_row,
    _lincomb,
    _standard_basis,
    diagonalize,
)


class ChainError(Exception):
    pass


class NotOrthogonalError(ChainError):
    pass


class NotEqualModMError(ChainError):
    pass


class NotOrthogonalOverResidueError(ChainError):
    pass


class IsotropicPartialSumError(ChainError):
    def __init__(self, r):
        super().__init__(f"partial sum {r} is isotropic")
        self.r = r


class FieldTooSmallError(ChainError):
    pass


class ChainUnreachableError(ChainError):
    """The endpoints provably lie in different components (F_2 phenomena)."""


class BudgetExceededError(ChainError):
    pass


class BadParametersError(ChainError):
    pass


# ---------------------------------------------------------------------------
# vectors, bases and chains
# ---------------------------------------------------------------------------


def _indices_of(ring, v):
    """The index tuple of v; RingError unless its entries lie in ``ring``."""
    ring.check_elements(v)
    return tuple(e.data for e in v)


def _elements(ring, v):
    elems = ring.elems
    return tuple(elems[d] for d in v)


def _residues(ring, v):
    """The image of v over the residue field (canonical lifts share indices)."""
    residue = ring.residue_of
    return tuple(residue[d] for d in v)


class OrthogonalBasis:
    """Ordered tuple of pairwise orthogonal anisotropic vectors forming a basis.

    Its vectors are kept as index tuples (``indices``), elements
    (``vectors``) or both, each made from the other on first use.
    ``_judged`` is set by the checker only (``certify._check_orthobasis``)."""

    _judged = None

    def __init__(self, space: BilinearSpace, vectors, validate: bool = True):
        self.space = space
        self._vectors = tuple(tuple(v) for v in vectors)
        self._indices = None
        if validate:
            ok, msg = certify._check_orthobasis(space, self)
            if not ok:
                raise NotOrthogonalError(msg)

    @classmethod
    def _of(cls, space, indices) -> "OrthogonalBasis":
        """An unchecked basis of index tuples."""
        basis = cls.__new__(cls)
        basis.space, basis._vectors, basis._indices = space, None, indices
        return basis

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = tuple(_elements(self.space.ring, v) for v in self._indices)
        return self._vectors

    @property
    def indices(self):
        """The vectors as index tuples, after a check of their ring."""
        if self._indices is None:
            self._indices = tuple(_indices_of(self.space.ring, v) for v in self._vectors)
        return self._indices

    def vector_set(self):
        return frozenset(self.vectors)

    def q_values(self):
        return tuple(self.space.eval_q(v) for v in self.vectors)

    def reduce(self) -> "OrthogonalBasis":
        space = self.space
        return OrthogonalBasis(space.reduce(), tuple(map(space.reduce_vector, self.vectors)))

    def to_json(self):
        return [[c.to_json() for c in v] for v in self.vectors]

    def __eq__(self, other):
        return (
            isinstance(other, OrthogonalBasis)
            and self.space == other.space
            and self.vectors == other.vectors
        )

    def __repr__(self):
        return f"OrthogonalBasis({list(self.vectors)!r})"


class Chain:
    """A nonempty sequence of orthogonal bases with >= n-2 set overlap."""

    def __init__(self, space: BilinearSpace, bases):
        self.space = space
        self.bases = tuple(bases)
        if not self.bases:
            raise ChainError("a chain must contain at least one basis")

    def __len__(self):
        return len(self.bases)

    def verify(self, start: OrthogonalBasis, end: OrthogonalBasis):
        ok, msg = verify_chain(self, start, end)
        if not ok:
            raise ChainError(msg)
        return self

    def to_json(self):
        """The certificate as a JSON value: ring spec, Gram matrix, and each
        basis as a list of vectors, written from the index tuples.

        Consecutive bases share most of their vectors, so within one document
        every distinct vector and every distinct element is built once and
        the same list is reused wherever it appears: sub-lists may be shared
        within one document (mutating a vector's list changes it in every
        basis that holds it).  ``json.dumps`` gives the same text as for
        unshared lists, and two calls share nothing with each other.
        """
        ring = self.space.ring
        elements: dict = {}
        vectors: dict = {}

        def element(d):
            if d not in elements:
                elements[d] = ring._rjson(d)
            return elements[d]

        def vector(v):
            if v not in vectors:
                vectors[v] = [element(d) for d in v]
            return vectors[v]

        return {
            "ring": ring.spec,
            "gram": [[element(e.data) for e in row] for row in self.space.gram],
            "bases": [[vector(v) for v in b.indices] for b in self.bases],
        }

    @classmethod
    def from_json(cls, obj, ring: LocalRing | None = None,
                  size_cap: int | None = None) -> "Chain":
        from .rings import parse_ring, DEFAULT_SIZE_CAP

        if ring is None:
            cap = size_cap if size_cap is not None else DEFAULT_SIZE_CAP
            ring = parse_ring(obj["ring"], cap)
        space = BilinearSpace.from_json(ring, obj["gram"])
        # unchecked: a decoded certificate is judged by verify_chain alone
        bases = [
            OrthogonalBasis._of(
                space, tuple(tuple(ring.element_from_json(c).data for c in v) for v in bvecs)
            )
            for bvecs in obj["bases"]
        ]
        return cls(space, bases)


def _certified(space, tuples, start: OrthogonalBasis, end: OrthogonalBasis) -> Chain:
    """Wrap builder output in unchecked bases and verify the chain once."""
    bases = [OrthogonalBasis._of(space, t) for t in tuples]
    return Chain(space, bases).verify(start, end)


def standard_basis(space: BilinearSpace) -> OrthogonalBasis:
    """The standard basis, valid only when the Gram matrix is diagonal."""
    return OrthogonalBasis(space, space.standard_basis())


# ---------------------------------------------------------------------------
# local-ring steps
# ---------------------------------------------------------------------------


def elementary_move(basis: OrthogonalBasis, eps: RingElement, i: int, j: int) -> OrthogonalBasis:
    """Replace positions i, j by (u_i + eps u_j, u_j - eps q(u_j)/q(u_i) u_i).

    eps must lie in the maximal ideal; the result is orthogonal and equals
    the input componentwise modulo the maximal ideal.
    """
    space = basis.space
    ring = space.ring
    if eps.is_unit():
        raise NotInMaximalIdealError("eps must lie in the maximal ideal")
    n = len(basis.indices)
    if not (0 <= i < n and 0 <= j < n):
        raise ChainError(f"positions must lie in range({n})")
    if i == j:
        raise ChainError("positions must differ")
    (e,) = _indices_of(ring, (eps,))
    u = list(basis.indices)
    mul = ring.mul
    f = ring.neg[mul[mul[e][_b(space, u[j], u[j])]][ring._rinv(_b(space, u[i], u[i]))]]
    pair = (u[i], u[j])
    u[i], u[j] = _lincomb(ring, pair, (1, e)), _lincomb(ring, pair[::-1], (1, f))
    return OrthogonalBasis(space, [_elements(ring, v) for v in u])


def _coords_in(space, basis_vectors, z, qs):
    """Coordinates of z in an orthogonal tuple whose q-values are ``qs``:
    c_i = b(z, u_i) / q_i, as a list."""
    ring = space.ring
    return [ring.mul[_b(space, z, u)][ring._rinv(q)] for u, q in zip(basis_vectors, qs)]


def chain_equal_mod_m(b1: OrthogonalBasis, b2: OrthogonalBasis) -> Chain:
    """Chain between orthogonal bases that agree componentwise mod m."""
    space = b1.space
    if b2.space != space:
        raise ChainError("bases live on different spaces")
    ring = space.ring
    if [_residues(ring, v) for v in b1.indices] != [_residues(ring, v) for v in b2.indices]:
        raise NotEqualModMError("bases differ modulo the maximal ideal")
    steps = _equal_mod_m_core(space, b1.indices, b2.indices)
    return _certified(space, _dedupe(steps), b1, b2)


def _equal_mod_m_core(space, cur, target):
    """Steps from cur to target, orthogonal tuples equal componentwise mod m.

    Level by level, target[0] = sum c_i u_i is reached from cur[0] by
    rescaling it by c_0 and one elementary move per nonzero c_i (i >= 1);
    the rest of the level becomes the next level's tuple.  The q-values are
    evaluated once and carried: work[i] is still u_i, orthogonal to work[0],
    until its move, so the move with eps and f = -eps q_i / q(work[0]) gives
    q(work[0] + eps u_i) = q(work[0]) + eps^2 q_i and
    q(u_i + f work[0]) = q_i + f^2 q(work[0])."""
    if cur == target:
        return [cur]
    if len(cur) <= 2:
        return [cur, target]
    ring = space.ring
    add, mul, neg, residue = ring.add, ring.mul, ring.neg, ring.residue_of
    qs = [_b(space, u, u) for u in cur]
    steps = [cur]
    head = ()  # the target vectors already in place
    while True:
        coords = _coords_in(space, cur, target[0], qs)
        work = list(cur)
        c0 = coords[0]
        q0 = mul[mul[c0][c0]][qs[0]]
        if c0 != 1:  # eps_1 = c0 - 1 is not zero
            work[0] = _lincomb(ring, (work[0],), (c0,))
            # a later move replaces work[0] anyway, so the rescaling rides on it
            if not any(coords[1:]):
                steps.append(head + tuple(work))
        for i in range(1, len(cur)):
            eps = coords[i]
            if not eps:
                continue
            if residue[eps]:
                raise NotEqualModMError("coordinate outside the maximal ideal")
            qi = qs[i]  # work[i] is still cur[i]
            f = neg[mul[mul[eps][qi]][ring._rinv(q0)]]
            pair = (work[0], work[i])
            work[0], work[i] = _lincomb(ring, pair, (1, eps)), _lincomb(ring, pair[::-1], (1, f))
            q0, qs[i] = add[q0][mul[mul[eps][eps]][qi]], add[qi][mul[mul[f][f]][q0]]
            steps.append(head + tuple(work))
        if work[0] != target[0]:
            raise ChainError("partial-sum recursion failed to reach the target vector")
        head += (work[0],)
        cur, target, qs = tuple(work[1:]), target[1:], qs[1:]
        if cur == target:
            return steps
        if len(cur) <= 2:
            steps.append(head + target)
            return steps


def _dedupe(steps):
    """Drop each step whose vector set equals the last kept one."""
    out = [steps[0]]
    last = frozenset(steps[0])
    prev = steps[0]
    for t in steps[1:]:
        if t != prev:
            s = frozenset(t)
            if s != last:
                out.append(t)
                last = s
        prev = t
    return out


# ---------------------------------------------------------------------------
# lifting residue bases
# ---------------------------------------------------------------------------


def lift_basis(space: BilinearSpace, residue_vectors) -> OrthogonalBasis:
    """Lift an orthogonal basis of the reduced space to one over the ring."""
    basis, _ = lift_pair(space, residue_vectors, residue_vectors)
    return basis


def _lift_into(ech, vbar):
    """The vector v orthogonal to the lifts whose rows w^T A ``ech`` holds,
    with v[f] the canonical lift of vbar[f] on every free column f; each
    pivot entry is then -sum_f row[f] v[f].  NotOrthogonalOverResidueError
    when a pivot entry does not reduce to vbar[p]."""
    ring = ech.ring
    add, mul, neg, residue = ring.add, ring.mul, ring.neg, ring.residue_of
    # the canonical lift of a residue has the residue's own index
    v = list(vbar)
    taken = set(ech.pivots)
    free = [f for f in range(len(v)) if f not in taken]
    for row, p in zip(ech.rows, ech.pivots):
        acc = 0
        for f in free:
            a, x = row[f], v[f]
            if a and x:
                acc = add[acc][mul[a][x]]
        acc = neg[acc]
        if residue[acc] != vbar[p]:
            raise NotOrthogonalOverResidueError(
                "residue vector is not orthogonal to the previous ones"
            )
        v[p] = acc
    return tuple(v)


def _lift_in_turn(space, ech, residue_vectors):
    """Lift each residue vector into the complement of the ones lifted
    before it, starting from the rows ``ech`` holds."""
    lifts: list = []
    for vbar in residue_vectors:
        if lifts:
            ech.add(_gram_row(space, lifts[-1]))
        lifts.append(_lift_into(ech, vbar))
    return lifts


def lift_pair(space: BilinearSpace, bbar, cbar):
    """Lift two residue bases differing in <= 2 places to lifts sharing all
    other positions exactly."""
    bbar = tuple(tuple(v) for v in bbar)
    cbar = tuple(tuple(v) for v in cbar)
    if len(bbar) != len(cbar):
        raise ChainError("residue bases must have equal length")
    if any(len(v) != space.n for v in cbar):
        raise ChainError("residue vector length does not match the space dimension")
    rspace = space.reduce()
    residue_basis = OrthogonalBasis(rspace, bbar, validate=False)
    ok, msg = certify._check_orthobasis(rspace, residue_basis)
    if not ok:
        raise NotOrthogonalOverResidueError(msg)
    bbar = residue_basis.indices
    cbar = tuple(_indices_of(rspace.ring, v) for v in cbar)
    bvecs, cvecs = _lift_pair_core(space, bbar, cbar)
    for lifts, residue in ((bvecs, bbar), (cvecs, cbar)):
        if tuple(_residues(space.ring, v) for v in lifts) != residue:
            raise ChainError("lift does not reduce to its input")
    B = OrthogonalBasis(space, [_elements(space.ring, v) for v in bvecs])
    if cvecs == bvecs:
        return B, B
    return B, OrthogonalBasis(space, [_elements(space.ring, v) for v in cvecs])


def _lift_pair_core(space, bbar, cbar):
    """Lift tuples of the two residue bases; the lifts share every position
    in which bbar and cbar agree.  Each vector of bbar is lifted into the
    orthogonal complement of the lifts before it; the second half is
    ``_lift_step``, from those lifts to cbar.

    Both grow an ``Echelon`` of the rows w^T A.  These are the lifts of
    solving over the residue field in the complement that
    ``orthogonal_complement`` returns: that complement is the kernel of the
    same echelon form, whose vector for free column f has 1 there and 0 on
    the other free columns, so the solution takes vbar[f] as its
    coefficient and exists iff every pivot entry of the lift reduces to
    vbar[p], which ``_lift_into`` computes and checks."""
    B = tuple(_lift_in_turn(space, Echelon(space.ring, space.n), bbar))
    return B, _lift_step(space, B, bbar, cbar)


def _lift_step(space, cur, prev, nxt):
    """cur, kept verbatim where the residue tuples prev and nxt agree, with
    each differing vector of nxt lifted into the complement of the kept
    vectors and the new ones before it; cur must reduce positionally to prev."""
    diff = [i for i in range(len(prev)) if prev[i] != nxt[i]]
    if len(diff) > 2:
        raise ChainError("residue bases differ in more than two places")
    if not diff:
        return cur
    kept = (cur[i] for i in range(len(cur)) if i not in diff)
    ech = Echelon(space.ring, space.n, (_gram_row(space, w) for w in kept))
    new = iter(_lift_in_turn(space, ech, [nxt[d] for d in diff]))
    return tuple(next(new) if i in diff else v for i, v in enumerate(cur))


# ---------------------------------------------------------------------------
# element chains and the contraction loop
# ---------------------------------------------------------------------------


def _complement_in_plane(space, z, p, q):
    """Generator of the orthogonal of z inside the nondegenerate plane
    spanned by p and q (z anisotropic in that plane)."""
    ring = space.ring
    return _lincomb(ring, (p, q), (_b(space, q, z), ring.neg[_b(space, p, z)]))


def _extend_core(space, basis_vectors, coeffs):
    """Chain realizing lem. "element chains": returns (steps, final_tuple).

    basis_vectors is a tuple of mutually orthogonal anisotropic vectors;
    coeffs are carrier indices.  Every nonzero partial sum past the first
    nonzero coefficient must be anisotropic (IsotropicPartialSumError
    reports the 1-based failing index).
    """
    ring = space.ring
    residue = ring.residue_of
    k = len(basis_vectors)
    steps = [tuple(basis_vectors)]
    work = list(basis_vectors)
    partial = None          # current partial sum vector, sits at position `pos`
    pos = None
    placed = False          # whether `partial` has been written into `work`
    for r in range(k):
        c = coeffs[r]
        if not c:
            continue
        if partial is None:
            partial = _lincomb(ring, (work[r],), (c,))
            if not residue[_b(space, partial, partial)]:
                raise IsotropicPartialSumError(r + 1)
            pos = r
            placed = work[r] == partial
            continue
        z = _lincomb(ring, (partial, work[r]), (1, c))
        if not residue[_b(space, z, z)]:
            raise IsotropicPartialSumError(r + 1)
        # the plane span(work[pos], work[r]) contains both partial and z,
        # so the first move folds the head scaling into one step
        s = _complement_in_plane(space, z, work[pos], work[r])
        if not residue[_b(space, s, s)]:  # pragma: no cover - plane nondegenerate
            raise ChainError("complement generator degenerated")
        work[pos] = z
        work[r] = s
        partial = z
        placed = True
        steps.append(tuple(work))
    if partial is None:
        raise ChainError("all coefficients vanish")
    if not placed:
        work[pos] = partial
        steps.append(tuple(work))
    # move the constructed vector to the front (pure reordering, no step)
    final = list(steps[-1])
    final.insert(0, final.pop(pos))
    return steps, tuple(final)


def extend_vector_chain(basis: OrthogonalBasis, coeffs):
    """Extend v_1 = sum a_i u_i to an orthogonal basis chain equivalent to u."""
    space = basis.space
    coeffs = tuple(coeffs)
    if len(coeffs) != len(basis.indices):
        raise ChainError("coefficient count must match the dimension")
    steps, final = _extend_core(space, basis.indices, _indices_of(space.ring, coeffs))
    target = OrthogonalBasis._of(space, final)
    return _certified(space, _dedupe(steps), basis, target), target


def find_nonvanishing_vector(field: LocalRing, forms):
    """Vector on which every given diagonal quadratic form is nonzero.

    forms: list of coefficient tuples (alpha_1..alpha_n), each the diagonal
    of a nontrivial quadratic form sum alpha_i x_i^2 over a finite field of
    characteristic 2.
    """
    forms = [tuple(f) for f in forms]
    if not forms:
        raise BadParametersError("at least one form is required")
    n = len(forms[0])
    if any(len(f) != n for f in forms):
        raise BadParametersError("forms must share one dimension")
    if field.size % 2:
        raise BadParametersError("the construction needs characteristic 2")
    if field.size < len(forms):
        raise FieldTooSmallError(
            f"|F| = {field.size} < {len(forms)} forms"
        )
    forms = [_indices_of(field, f) for f in forms]
    if not all(any(f) for f in forms):
        raise BadParametersError("forms must be nontrivial")
    add, mul = field.add, field.mul

    def value(f, v):
        acc = 0
        for c, x in zip(f, v):
            acc = add[acc][mul[mul[c][x]][x]]
        return acc

    # the epsilon-selection proof, one form at a time: in characteristic 2
    # f(eps v + w) = eps^2 f(v) + f(w), so when f(v) = 0 the vector
    # eps v + w, with f(w) != 0, keeps f nonzero and an earlier form g
    # nonzero unless eps^2 = g(w) / g(v); squaring is a bijection and |F|
    # is at least the number of forms, so some eps avoids every quotient
    v = None
    for r, f in enumerate(forms):
        if v is not None and value(f, v):
            continue
        # e_j for the last j with f[j] != 0 is the lexicographically first
        # vector on which f is nonzero
        j = max(i for i, c in enumerate(f) if c)
        w = tuple(int(i == j) for i in range(n))
        if v is None:
            v = w
            continue
        forbidden = {mul[value(g, w)][field._rinv(value(g, v))] for g in forms[:r]}
        eps = next(e for e in range(field.size) if mul[e][e] not in forbidden)
        v = _lincomb(field, (v, w), (eps, 1))
    return _elements(field, v)


def hat_chain(n: int, field: LocalRing) -> Chain:
    """Chain on <1>^n from the standard basis e to the hat basis
    (hat_e_r = sum of all e_i, i != r); n even >= 4, char 2, F != F_2."""
    if n < 4 or n % 2:
        raise BadParametersError("n must be even and at least 4")
    if field.size % 2 or field.size == 2 or not field.is_field:
        raise BadParametersError("field must have characteristic 2 and more than 2 elements")
    space = BilinearSpace.diagonal(field, (field.one,) * n)
    e = _standard_basis(n)
    hat = tuple(tuple(int(i != r) for i in range(n)) for r in range(n))
    return _certified(
        space,
        _dedupe(_chain_core(space, e, hat)),
        OrthogonalBasis._of(space, e),
        OrthogonalBasis._of(space, hat),
    )


def _chain_core(space, tup_a, tup_b, qs=None):
    """Steps connecting two orthogonal tuples spanning the same subspace:
    the contraction loop where the residue field is not F_2; over residue
    F_2 (length >= 3) the set rule of the module docstring, then a
    permutation and one equal-mod-m chain.  ``qs`` goes to the loop."""
    ring = space.ring
    # the loop returns at once on tuples equal as sets or of length <= 2
    if ring.residue_field().size > 2 or len(tup_a) <= 2 or frozenset(tup_a) == frozenset(tup_b):
        return _contraction_loop(space, tup_a, tup_b, qs)
    residues_a = [_residues(ring, v) for v in tup_a]
    if frozenset(residues_a) != frozenset(_residues(ring, v) for v in tup_b):
        raise ChainUnreachableError("endpoints lie in different chain components over F_2")
    by_reduction = dict(zip(residues_a, tup_a))
    arranged = tuple(by_reduction[_residues(ring, v)] for v in tup_b)
    return [tup_a] + _equal_mod_m_core(space, arranged, tup_b)


def _contraction_loop(space, tup_a, tup_b, qs=None):
    """Minimal-support contraction of w1 = tup_b[0] into the current tuple,
    then recursion on the complement of w1; the residue field must not be
    F_2.  ``qs`` holds the q-values of tup_a (evaluated here when not given).

    Each pass replaces the first pair (i, j) of support vectors whose part
    z = c_i u_i + c_j u_j of w1 is anisotropic by z and its complement
    s = c_j q_j u_i - c_i q_i u_j in their plane, until w1 itself is in the
    tuple (support means c_i != 0).  These closed forms hold over any
    commutative ring:
    - w1 = sum c_i u_i holds exactly, as the u_i are orthogonal with unit q;
    - q(s) = q_i q_j q(z) is a unit, and z, s span the plane of u_i, u_j
      (the determinant of the change is -q(z));
    - w1 has coordinate 1 on z and 0 on s, so its support shrinks by one.
    A support of size 1 takes one rescaling step (c is a unit).

    Only the existence of a pair depends on 2.  Write a_i = c_i^2 q_i mod m,
    zero unless c_i is a unit; q(w1) = sum a_i is a unit, so some a_i is
    not.  A pair with a_i != 0 = a_k works.  Otherwise every support
    coefficient is a unit, and a pair fails only when a_i = -a_j.  Where 2
    is a unit, if all failed, three of them would give 2 a_i = 0, and two
    would give q(w1) = a_i + a_j = 0 mod m; so each level of dimension
    d >= 3 takes at most d - 1 steps, dimension <= 2 one step, and a chain
    at most n(n-1)/2 + 1 bases.

    In residue characteristic 2 every pair fails exactly when all a_i on
    the support equal one a.  Then a != 0 and the support size r is odd,
    since r a = q(w1) mod m.  The support is not the whole tuple: then for
    v = sum d_i u_i orthogonal to w1, sum d_i c_i q_i = 0 gives
    sum d_i / c_i = 0 mod m (c_i q_i = a / c_i mod m), and
    q(v) = a sum (d_i / c_i)^2 = a (sum d_i / c_i)^2 = 0 mod m, so every
    vector orthogonal to w1 would be isotropic, against the anisotropic
    tup_b[1:].  So r >= 3 and d >= 4.  Then one rotation makes a pair:
    - take i the first support position, k the first one outside it, and
      lambda the first unit with q_i + lambda^2 q_k a unit (squaring is a
      bijection of the residue field, which has more than 2 elements);
    - replace (u_i, u_k) by z = u_i + lambda u_k and
      s = lambda q_k u_i - q_i u_k, the closed forms with coefficients
      (1, lambda); w1 has coordinates c_i q_i / q(z) on z and
      c_i lambda / q(z) on s, of values a_z = a q_i / q(z) and a - a_z,
      neither 0 nor a;
    - two a-vectors still fail, and an a-vector with one of the two rotated
      vectors passes: its contraction has the value of the other, so the
      shape is kept.  The two rotated vectors are not contracted with each
      other while a-vectors remain, which would bring back the all-equal
      case; after r - 1 steps only they remain, and they contract to w1.
    A level with a rotation takes at most d - r contractions before it and
    1 + r steps from it, d + 1 in all, so a chain has at most
    n(n-1)/2 + 1 + 2(n-3) bases (n >= 3).  Where 2 is a unit no rotation
    happens.

    The loop carries the q-values of the current tuple and the coordinates
    of w1 on it, updated by the closed forms above; b is evaluated for the
    coordinates once per level and for the q-values only when the caller
    has none, so a chain evaluates b sum_{d=3..n} d times, n more from an
    unjudged start.
    """
    if frozenset(tup_a) == frozenset(tup_b):
        return [tup_a]
    if len(tup_a) <= 2:
        return [tup_a, tup_b]
    ring = space.ring
    add, mul, neg, residue = ring.add, ring.mul, ring.neg, ring.residue_of
    qs = [_b(space, u, u) for u in tup_a] if qs is None else list(qs)
    steps = [tup_a]
    cur = list(tup_a)
    w1 = tup_b[0]
    coords = None
    held = ()  # the two rotated positions, once a rotation has run
    while w1 not in cur:
        if coords is None:
            coords = _coords_in(space, cur, w1, qs)
        supp = [i for i, c in enumerate(coords) if c]
        if len(supp) == 1:
            cur[supp[0]] = w1
            steps.append(tuple(cur))
            break
        a = [mul[mul[c][c]][q] for c, q in zip(coords, qs)]  # q(c_i u_i)
        pairs = (p for p in itertools.combinations(supp, 2) if residue[add[a[p[0]]][a[p[1]]]])
        if held and len(supp) > 2:
            pairs = (p for p in pairs if p != held)
        pair = next(pairs, None)
        if pair is None:  # the rotation
            i, j = supp[0], coords.index(0)
            qi, qj = qs[i], qs[j]
            x = 1
            for y in (u.data for u in ring.units()):
                qz = add[qi][mul[mul[y][y]][qj]]
                if residue[qz]:
                    break
            zinv, ci = ring._rinv(qz), coords[i]
            coords[i], coords[j] = mul[mul[ci][qi]][zinv], mul[mul[ci][y]][zinv]
            held = tuple(sorted((i, j)))
        else:
            i, j = pair
            qi, qj = qs[i], qs[j]
            x, y = coords[i], coords[j]
            qz = add[a[i]][a[j]]
            coords[i], coords[j] = 1, 0
            if held:  # the contracted vector takes the place of the rotated one it met
                held = tuple(sorted((i, held[0] if held[1] in pair else held[1])))
        plane = (cur[i], cur[j])
        cur[i] = _lincomb(ring, plane, (x, y))
        cur[j] = _lincomb(ring, plane, (mul[y][qj], neg[mul[x][qi]]))
        qs[i], qs[j] = qz, mul[mul[qi][qj]][qz]
        steps.append(tuple(cur))
    # cur contains w1; recurse on its complement
    pos = cur.index(w1)
    rest = tuple(cur[:pos] + cur[pos + 1:])
    for t in _contraction_loop(space, rest, tup_b[1:], qs[:pos] + qs[pos + 1:])[1:]:
        steps.append((w1,) + t)
    return steps


def chain_field(b: OrthogonalBasis, c: OrthogonalBasis) -> Chain:
    """Chain between orthogonal bases over a finite field.

    Over F_2 (n >= 3) bases that differ as sets raise ChainUnreachableError:
    each basis is alone in its chain component.
    """
    if not b.space.ring.is_field:
        raise ChainError("chain_field requires a field")
    return chain_local(b, c)


def chain_local(b: OrthogonalBasis, c: OrthogonalBasis) -> Chain:
    """Chain between two orthogonal bases over a finite local ring.

    Where the residue field is not F_2 the contraction loop runs over the
    ring itself: at most n(n-1)/2 + 1 bases where 2 is a unit, and
    n(n-1)/2 + 1 + 2(n-3) in residue characteristic 2 (n >= 3).  Over
    residue F_2 (n >= 3) a chain exists iff the residue bases agree as
    sets, and is then one equal-mod-m chain; otherwise
    ChainUnreachableError.
    """
    space = b.space
    if c.space != space:
        raise ChainError("bases live on different spaces")
    qs = b._judged[1] if b._judged and b._judged[0] is space else None
    return _certified(space, _dedupe(_chain_core(space, b.indices, c.indices, qs)), b, c)


# ---------------------------------------------------------------------------
# BFS oracle
# ---------------------------------------------------------------------------


BFS_CANDIDATE_BUDGET = 500_000


@dataclass
class BfsResult:
    status: str                     # "found" | "unreachable" | "budget"
    chain: Chain | None = None
    explored: int = 0
    component: tuple = dc_field(default_factory=tuple)


def bfs_chain_oracle(b: OrthogonalBasis, c: OrthogonalBasis) -> BfsResult:
    """Breadth-first search on the graph of orthogonal basis sets.

    A reference for the builders, which never call it.  Edges replace at
    most two vectors.  "unreachable" is only reported after the full
    component of the start basis has been explored.  Limits as in
    ``bilinear``: ``BudgetExceededError`` above the search space cap, and
    status "budget" before the candidate vectors formed would pass
    ``BFS_CANDIDATE_BUDGET``.  A node's cost grows with |R|^2, so the budget
    counts candidates, not nodes; ``explored`` counts nodes.
    """
    space = b.space
    if c.space != space:
        raise ChainError("bases live on different spaces")
    result, tuples = _bfs_core(space, b.indices, c.indices)
    if tuples is not None:
        result.chain = _certified(space, tuples, b, c)
    ring = space.ring
    result.component = tuple(frozenset(_elements(ring, v) for v in n) for n in result.component)
    return result


def _check_search_space(space):
    """BudgetExceededError when |R|^n exceeds ``bilinear.SEARCH_SPACE_CAP``."""
    size, cap = space.ring.size ** space.n, bilinear.SEARCH_SPACE_CAP
    if size > cap:
        raise BudgetExceededError(f"|R|^n = {size} exceeds the search space cap {cap}")


def _bfs_core(space, tup_b, tup_c):
    """(BfsResult without a chain, path tuples or None), over index tuples."""
    _check_search_space(space)
    start, goal = frozenset(tup_b), frozenset(tup_c)
    parents: dict = {start: None}
    queue = deque([start])
    n, ring = space.n, space.ring
    # the candidates _bfs_neighbors forms per node: each unit multiple of the
    # n one-vector complements, and each (c1, c2) of the n(n-1)/2 planes
    per_node = n * len(ring.units()) + n * (n - 1) // 2 * ring.size ** 2
    explored = candidates = 0
    found = start == goal
    while queue and not found:
        node = queue.popleft()
        explored += 1
        candidates += per_node
        if candidates > BFS_CANDIDATE_BUDGET:
            return BfsResult("budget", explored=explored), None
        for nxt in _bfs_neighbors(space, node):
            if nxt in parents:
                continue
            parents[nxt] = node
            if nxt == goal:
                found = True
                break
            queue.append(nxt)
    if not found:
        component = tuple(sorted(parents, key=_canonical_tuple))
        return BfsResult("unreachable", explored=explored, component=component), None
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()
    tuples = [_canonical_tuple(path[0])]
    for nod in path[1:]:
        tuples.append(_align_step(tuples[-1], nod))
    return BfsResult("found", explored=explored, component=()), tuples


def _align_step(prev_tuple, next_set):
    """Order next_set so it differs from prev_tuple in <= 2 positions."""
    prev_set = frozenset(prev_tuple)
    shared = prev_set & next_set
    inc = iter(sorted(next_set - prev_set))
    return tuple(v if v in shared else next(inc) for v in prev_tuple)


def _canonical_tuple(node):
    """The vectors of a node in index order; also the order of nodes."""
    return tuple(sorted(node))


def _bfs_neighbors(space, node):
    ring = space.ring
    residue = ring.residue_of
    vectors = _canonical_tuple(node)
    n = len(vectors)
    units = [u.data for u in ring.units()]
    out = []
    # replace one vector
    for i in range(n):
        kept = vectors[:i] + vectors[i + 1:]
        # the line orthogonal to `kept` is the one of the removed vector, so
        # g is a unit multiple of it and anisotropic
        g = _complement(space, kept)[0]
        for u in units:
            nxt = frozenset(kept) | {_lincomb(ring, (g,), (u,))}
            if nxt != node:
                out.append(nxt)
    # replace two vectors
    for i, j in itertools.combinations(range(n), 2):
        kept = tuple(v for k, v in enumerate(vectors) if k not in (i, j))
        # g1, g2 are a free basis of the plane orthogonal to `kept`, so each
        # (c1, c2) gives a new z1; z1 and z2 are anisotropic and orthogonal
        # to each other and to `kept`, so nxt always has n vectors
        g1, g2 = _complement(space, kept)[:2]
        for c1 in range(ring.size):
            for c2 in range(ring.size):
                z1 = _lincomb(ring, (g1, g2), (c1, c2))
                if not residue[_b(space, z1, z1)]:
                    continue
                gp = _complement_in_plane(space, z1, g1, g2)
                if not residue[_b(space, gp, gp)]:
                    continue
                for u in units:
                    nxt = frozenset(kept) | {z1, _lincomb(ring, (gp,), (u,))}
                    if nxt != node:
                        out.append(nxt)
    # deterministic expansion order
    return sorted(set(out), key=_canonical_tuple)


def all_orthogonal_bases(space: BilinearSpace):
    """Every orthogonal basis vector-set of a small space (backtracking);
    ``BudgetExceededError`` above the search space cap (see ``bilinear``)."""
    _check_search_space(space)
    ring = space.ring
    residue = ring.residue_of
    aniso = [v for q, vs in space._vectors_by_q().items() if residue[q] for v in vs]
    results: list = []

    def extend(chosen, start_pool):
        if len(chosen) == space.n:
            # pairwise orthogonal with unit q-values, hence a basis (certify)
            results.append(frozenset(chosen))
            return
        for idx, v in enumerate(start_pool):
            if not any(_b(space, v, w) for w in chosen):
                extend(chosen + [v], start_pool[idx + 1:])

    extend([], aniso)
    nodes = sorted(results, key=_canonical_tuple)
    return [frozenset(_elements(ring, v) for v in node) for node in nodes]


# ---------------------------------------------------------------------------
# randomized generation helpers (used by the test suites)
# ---------------------------------------------------------------------------


# random vectors tried for each basis position before backtracking
RANDOM_BASIS_ATTEMPTS = 2000


def random_orthogonal_basis(space: BilinearSpace, rng) -> OrthogonalBasis:
    """A random orthogonal basis of a space that admits one.

    Backtracking rejection sampling: pick random anisotropic vectors whose
    orthogonal complement still diagonalizes with unit values throughout.
    """
    ring = space.ring
    residue, elems = ring.residue_of, ring.elems

    def pick(basis_vectors):
        if not basis_vectors:
            return []
        for _ in range(RANDOM_BASIS_ATTEMPTS):
            coeffs = [rng.randrange(ring.size) for _ in basis_vectors]
            v = _lincomb(ring, basis_vectors, coeffs)
            if not residue[_b(space, v, v)]:
                continue
            rest = _complement_within(space, basis_vectors, (v,))
            gram = tuple(tuple(elems[_b(space, p, q2)] for q2 in rest) for p in rest)
            try:
                sub = BilinearSpace(ring, gram)
            except BilinearError:  # pragma: no cover - complement is nondegenerate
                continue
            rep, _ = diagonalize(sub)
            if rep.r:
                continue
            tail = pick(rest)
            if tail is not None:
                return [v] + tail
        return None

    vecs = pick(_standard_basis(space.n))
    if vecs is None:
        raise ChainError("could not sample an orthogonal basis")
    return OrthogonalBasis(space, [_elements(ring, v) for v in vecs])


def random_diagonal_space(ring: LocalRing, n: int, rng) -> BilinearSpace:
    return BilinearSpace.diagonal(ring, tuple(ring.random_unit(rng) for _ in range(n)))
