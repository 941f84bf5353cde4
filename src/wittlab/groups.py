"""GW(R), K0^MW(R), and W(R) as finitely presented abelian groups.

The Milnor-Witt relations (square triviality, hyperbolic annihilation,
Steinberg) make <u> equal to <us^2>, so the presentations of K0^MW, GW and W
have one generator per square class of R*, and each unit maps to the column
of its class.  The hyperbolic and Steinberg generators are closed over the
square classes: a generating set of the relation lattice, not its full
product closure.  The Steinberg-only quotient is not square-invariant and
keeps one generator per unit.  GW adds rows for isometries of small diagonal
forms, and every such row is backed by a proof that the relation lattice
does not over-collapse.  Rank-2 rows come from a closed-form criterion alone:
<a,b> and <c,d> are isometric iff ab = cd mod squares and <a,b> represents
c.  The represented values are read off exact value tables, and every
identification carries an explicit 2x2 congruence witness that is checked
exactly.  Above rank 2, GW adds only the pairs that the classifier of
diagonal unit tuples joins by an exhaustive isometry search (its two-entry
rewrites are sums of rank-2 rows); it also serves the stable isometry
oracle, and reports pairs that no method decides as undecided.

Group structure is computed by integer Smith normal form with retained
transforms, which makes generator images, representative lifting, products,
and lattice-membership tests exact.  The Smith form, each congruence witness
and the vanishing of every relation row are checked in `certify`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

from .rings import LocalRing, RingElement
from .bilinear import (
    BilinearSpace,
    CongruenceWitness,
    is_isometric,
    stable_diagonalize,
)
from . import certify, snf


class GroupsError(Exception):
    pass


# ---------------------------------------------------------------------------
# group ring elements
# ---------------------------------------------------------------------------


class GroupRingElement:
    """Finitely supported integer combination of unit classes in Z[R*]."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: LocalRing, coeffs: dict | None = None):
        self.ring = ring
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def generator(cls, a: RingElement) -> "GroupRingElement":
        if not a.is_unit():
            raise GroupsError(f"{a!r} is not a unit")
        return cls(a.ring, {a.data: 1})

    @classmethod
    def one(cls, ring: LocalRing) -> "GroupRingElement":
        return cls(ring, {ring.one.data: 1})

    @classmethod
    def pfister(cls, a: RingElement) -> "GroupRingElement":
        """<<a>> = <1> - <a>."""
        out = cls.one(a.ring).coeffs.copy()
        out[a.data] = out.get(a.data, 0) - 1
        return cls(a.ring, out)

    @classmethod
    def hyperbolic(cls, ring: LocalRing) -> "GroupRingElement":
        """h = <1> + <-1>."""
        return cls.generator(ring.one) + cls.generator(ring.minus_one)

    def __add__(self, other):
        out = self.coeffs.copy()
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return GroupRingElement(self.ring, out)

    def __sub__(self, other):
        out = self.coeffs.copy()
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return GroupRingElement(self.ring, out)

    def __neg__(self):
        return GroupRingElement(self.ring, {k: -v for k, v in self.coeffs.items()})

    def scale(self, n: int):
        return GroupRingElement(self.ring, {k: n * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        ring = self.ring
        units, index, table = ring.units(), ring.unit_index(), ring.unit_product_table()
        out: dict = {}
        for ka, va in self.coeffs.items():
            row = table[index[ka]]
            for kb, vb in other.coeffs.items():
                k = units[row[index[kb]]].data
                out[k] = out.get(k, 0) + va * vb
        return GroupRingElement(ring, out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def to_row(self, index: dict, width: int) -> tuple:
        row = [0] * width
        for k, v in self.coeffs.items():
            row[index[k]] += v
        return tuple(row)

    def __repr__(self):
        fmt = self.ring.format_element
        return "".join(f"{self.coeffs[k]:+d}<{fmt(k)}>" for k in sorted(self.coeffs)) or "0"


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@dataclass
class Presentation:
    ring: LocalRing
    generators: tuple            # one unit RingElement per column, canonical order
    rows: tuple                  # relation rows on those columns, deduped
    kind: str
    notes: dict = dc_field(default_factory=dict)
    # unit data -> column: its square class for kmw, gw and witt, its own
    # position for ktilde, each generator's own column when not given
    column_of: dict | None = dc_field(default=None, repr=False)
    structure: "AbelianGroupStructure | None" = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.column_of is None:
            self.column_of = {g.data: i for i, g in enumerate(self.generators)}

    def check_rank_zero_rows(self):
        for row in self.rows:
            if sum(row) != 0:
                raise GroupsError(f"relation row {row} has nonzero coefficient sum")


def _dedupe_rows(rows):
    seen = set()
    out = []
    for r in rows:
        if any(r) and r not in seen and tuple(-x for x in r) not in seen:
            seen.add(r)
            out.append(r)
    return tuple(out)


def _partition(ring, by_squares):
    """The units by square class, or each unit alone: the class of each
    unit's data, each class's representative (its first unit in units()),
    and the class product table."""
    if not by_squares:
        return ring.unit_index(), ring.units(), ring.unit_product_table()
    sc = ring.square_classes()
    table = ring.cached("class_product_table", lambda: tuple(
        tuple(sc.class_index[ring.mul[a.data][b.data]] for b in sc.reps) for a in sc.reps
    ))
    return sc.class_index, sc.reps, table


def _class_terms(class_of, terms) -> dict:
    """A sum of (unit data, coefficient) terms as a class -> coefficient dict."""
    out: dict = {}
    for u, v in terms:
        out[class_of[u]] = out.get(class_of[u], 0) + v
    return {c: v for c, v in out.items() if v}


def _ideal_generators(ring, class_of, hyperbolic) -> list:
    """For each unit a in order, <<a>>h (when hyperbolic) and the Steinberg
    generator <<a>><<1-a>> (when 1-a is a unit), as class -> coefficient
    dicts; zero and repeated generators are dropped."""
    neg = ring.neg
    gens, seen = [], set()
    for a in (u.data for u in ring.units()):
        terms = []
        if hyperbolic:
            terms.append(((1, 1), (neg[1], 1), (a, -1), (neg[a], -1)))
        b = ring.add[1][neg[a]]
        if ring.residue_of[b]:
            terms.append(((1, 1), (a, -1), (b, -1), (ring.mul[a][b], 1)))
        for gen in (_class_terms(class_of, t) for t in terms):
            key = frozenset(gen.items())
            if gen and key not in seen:
                seen.add(key)
                gens.append(gen)
    return gens


def _closure_rows(table, generators):
    """Rows spanning the ideal of Z[G] generated by generators, G the
    classes of a partition with product table table (see _partition), one
    column per class: for each class g, then each generator, the row of
    g * generator."""
    rows = []
    for products in table:
        for gen in generators:
            row = [0] * len(table)
            for c, v in gen.items():
                row[products[c]] += v
            rows.append(tuple(row))
    return rows


def _ideal_presentation(ring, kind) -> Presentation:
    """Z[R*] modulo the ideal of the Steinberg generators (ktilde) or
    Z[R*/R*^2] modulo that of the Milnor-Witt ones (kmw), built once per
    ring and kind and kept on the ring."""
    def build():
        class_of, reps, table = _partition(ring, kind == "kmw")
        gens = _ideal_generators(ring, class_of, kind == "kmw")
        rows = _dedupe_rows(_closure_rows(table, gens))
        p = Presentation(ring, reps, rows, kind, column_of=class_of)
        p.check_rank_zero_rows()
        return p

    return ring.cached((kind, None), build)


def kmw_presentation(ring: LocalRing) -> Presentation:
    """Z[R*] modulo the square, hyperbolic, and Steinberg relations.

    The <<a^2>> generators identify <u> with <us^2>, so the generators are
    the square class representatives and the rows are the <<a>>h and
    Steinberg generators closed over the square classes: a generating set
    of the relation lattice, not the full product closure over all units.
    """
    return _ideal_presentation(ring, "kmw")


def ktilde_presentation(ring: LocalRing) -> Presentation:
    """Steinberg relation only (the ring written K~0^MW)."""
    return _ideal_presentation(ring, "ktilde")


def gw_presentation(ring: LocalRing, rank_cap: int | None = None) -> Presentation:
    """Rows generating the kernel of Z[R*/R*^2] -> GW(R): the Milnor-Witt rows
    (those of kmw_presentation, which dedupe to the same list) plus the
    isometry rows of diagonal forms of rank <= rank_cap (_isometry_rows).

    For residue field != F_2 the rank-2 rows are provably sufficient, so
    rank_cap defaults to 2 there and to 3 for residue field F_2 (where no
    exactness theorem exists; undecided pairs are recorded in notes).  The
    presentation is kept on the ring under the resolved rank cap.
    """
    F = ring.residue_field()
    if rank_cap is None:
        rank_cap = 2 if F.size != 2 else 3

    def build():
        kmw = kmw_presentation(ring)
        iso_rows, notes = _isometry_rows(ring, rank_cap)
        rows = _dedupe_rows(list(kmw.rows) + iso_rows)
        p = Presentation(ring, kmw.generators, rows, "gw", notes, kmw.column_of)
        p.check_rank_zero_rows()
        return p

    return ring.cached(("gw", rank_cap), build)


def witt_presentation(ring: LocalRing, rank_cap: int | None = None) -> Presentation:
    """GW presentation extended by the ideal generated by h: one row
    <g>h per square class g, kept on the ring under the resolved rank cap."""
    base = gw_presentation(ring, rank_cap)

    def build():
        class_of, _, table = _partition(ring, True)
        h = _class_terms(class_of, ((1, 1), (ring.neg[1], 1)))
        rows = _dedupe_rows(list(base.rows) + _closure_rows(table, [h]))
        return Presentation(ring, base.generators, rows, "witt", dict(base.notes), base.column_of)

    return ring.cached(("witt", base.notes["rank_cap"]), build)


# ---------------------------------------------------------------------------
# square-class tuple machinery (shared by gw rows and the oracle)
# ---------------------------------------------------------------------------


class _ClassData:
    """Square-class reps with multiplication and per-class q-distributions."""

    def __init__(self, ring: LocalRing):
        self.ring = ring
        sc = ring.square_classes()
        self.reps = sc.reps
        self.k = len(self.reps)
        self.class_index = sc.class_index
        self.mul = _partition(ring, True)[2]
        self.one_class = sc.class_index[ring.one.data]
        carrier = tuple(ring.elements())
        # per class: value rep*x^2 -> number of x, and one such x
        self._coord_dist = []
        self._coord_root = []
        for rep in self.reps:
            dist: dict = {}
            root: dict = {}
            for x in carrier:
                v = (rep * x * x).data
                dist[v] = dist.get(v, 0) + 1
                root.setdefault(v, x)
            self._coord_dist.append(dist)
            self._coord_root.append(root)
        self._roots = sc.roots
        self._space_cache: dict = {}
        self.rank2_class = self._rank2_partition()

    def det_class(self, tup):
        acc = self.one_class
        for c in tup:
            acc = self.mul[acc][c]
        return acc

    def q_distribution(self, tup):
        """Exact distribution of q over all vectors for diag(reps[tup])."""
        ring = self.ring
        acc = {0: 1}
        for c in tup:
            dist = self._coord_dist[c]
            nxt: dict = {}
            for va, ca in acc.items():
                row = ring.add[va]
                for vb, cb in dist.items():
                    k = row[vb]
                    nxt[k] = nxt.get(k, 0) + ca * cb
            acc = nxt
        return tuple(sorted(acc.items()))

    def represented(self, pair):
        """Square classes of the unit values of diag(reps[pair]) on R^2,
        each with one vector (x, y) attaining a value in that class.

        Exact: the sumset of the two coordinate value tables is the full
        image of q.  The scan stops once all k classes are found; each
        class keeps its first vector, so the result is that of a full scan.
        """
        add, residue = self.ring.add, self.ring.residue_of
        out: dict = {}
        rows, cols = (self._coord_root[c] for c in pair)
        for va, x in rows.items():
            row = add[va]
            for vb, y in cols.items():
                v = row[vb]
                if residue[v]:
                    out.setdefault(self.class_index[v], (x, y))
                    if len(out) == self.k:
                        return out
        return out

    def sqrt(self, u: RingElement) -> RingElement:
        """The first unit in units() whose square is the unit square u."""
        return self._roots[u.data]

    def space_of(self, tup) -> BilinearSpace:
        if tup not in self._space_cache:
            self._space_cache[tup] = BilinearSpace.diagonal(
                self.ring, tuple(self.reps[c] for c in tup)
            )
        return self._space_cache[tup]

    def _rank2_partition(self):
        """Each unordered square-class pair -> the tuple of pairs isometric
        to it.

        <a,b> and <c,d> (a, b, c, d unit class reps) are isometric iff
        ab = cd mod squares and <a,b> represents c.  Proof: if ax^2 + by^2 = c,
        then v = (x, y) and w = (-by, ax) are orthogonal, q(w) = abc and
        det[v w] = c is a unit, so <a,b> = <c, abc> = <c, d>; conversely an
        isometry maps e_1 to a vector of q-value c.  No step needs the
        residue field to avoid F_2.  The represented classes are exact
        (represented), so both answers are certain, and each union is backed
        by a checked CongruenceWitness.
        """
        pairs = list(itertools.combinations_with_replacement(range(self.k), 2))
        uf = _UnionFind()
        represented = {}
        for pa, pb in itertools.combinations(pairs, 2):
            if self.det_class(pa) != self.det_class(pb):
                continue
            if uf.find(pa) == uf.find(pb):
                continue
            if pa not in represented:
                represented[pa] = self.represented(pa)
            xy = represented[pa].get(pb[0])
            if xy is not None:
                _rank2_witness(self, pa, pb, *xy)  # raises unless M^T A M = B exactly
                uf.union(pa, pb)
        classes: dict = {}
        for p in pairs:
            classes.setdefault(uf.find(p), []).append(p)
        return {p: tuple(classes[uf.find(p)]) for p in pairs}


def _class_data(ring) -> _ClassData:
    return ring.cached("class_data", lambda: _ClassData(ring))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _rank2_witness(cd, pa, pb, x, y) -> CongruenceWitness:
    """M with M^T diag(a, b) M = diag(c, d), given ax^2 + by^2 = c s^2:
    the columns are v = (x, y)/s and t(-by, ax)/s with t^2 = d/(abc)."""
    a, b = (cd.reps[i] for i in pa)
    c, d = (cd.reps[i] for i in pb)
    s_inv = cd.sqrt((a * x * x + b * y * y) * c.inv()).inv()
    x, y = x * s_inv, y * s_inv
    t = cd.sqrt(d * (a * b * c).inv())
    matrix = ((x, -(b * y * t)), (y, a * x * t))
    return CongruenceWitness(cd.ring, cd.space_of(pa).gram, cd.space_of(pb).gram, matrix)


def _multiset_components(ring, m):
    """Union-find over rank-m class multisets joined by verified two-entry
    rewrites (sound for every ring; complete whenever the chain lemma
    applies, i.e. residue field != F_2).  At m = 2 its classes are the
    closed-form rank-2 partition."""
    cd = _class_data(ring)
    uf = _UnionFind()
    for node in itertools.combinations_with_replacement(range(cd.k), m):
        uf.find(node)
        for i, j in itertools.combinations(range(m), 2):
            rest = tuple(node[t] for t in range(m) if t not in (i, j))
            key = (node[i], node[j])
            for other in cd.rank2_class[key]:
                if other != key:
                    uf.union(node, tuple(sorted(rest + other)))
    return uf


def _tuple_classes(ring, m, stab):
    """Classes of rank-m class tuples up to isometry after padding both
    sides with <1>^stab, each class a sorted tuple and the classes ordered
    by least member; the pairs of class representatives joined by a search;
    and the pairs that no method decides.  It serves the stable isometry
    oracle, and the GW rows' search joins at rank >= 3.

    Identification is by verified two-entry rewrites at the top padding
    level, or by an explicit witness search at any padding s <= stab (an
    isometry at padding s extends to s+1 by adding a hyperbolic fixed line,
    so smaller paddings may decide pairs whose top level is out of search
    range).  Separation is by determinant class, by the exact q-value
    distribution at the top level, or by an exhausted search there.  Above
    its limits the search answers "unknown" (see ``bilinear``).
    """
    cd = _class_data(ring)
    uf = _multiset_components(ring, m + stab)

    def padded(t, s=stab):
        return tuple(sorted(t + (cd.one_class,) * s))

    nodes = list(itertools.combinations_with_replacement(range(cd.k), m))
    buckets: dict = {}
    for t in nodes:
        buckets.setdefault(uf.find(padded(t)), []).append(t)
    joined, undecided = [], []
    for ra, rb in itertools.combinations(sorted(buckets), 2):
        a, b = buckets[ra][0], buckets[rb][0]
        if cd.det_class(a) != cd.det_class(b):
            continue
        if cd.q_distribution(padded(a)) != cd.q_distribution(padded(b)):
            continue
        for s in range(stab + 1):
            pa, pb = padded(a, s), padded(b, s)
            if s < stab and cd.q_distribution(pa) != cd.q_distribution(pb):
                continue  # not isometric at this padding, maybe above
            status = is_isometric(cd.space_of(pa), cd.space_of(pb)).status
            if status == "isometric":
                uf.union(padded(a), padded(b))
                joined.append((a, b))
                break
            if status == "not_isometric" and s == stab:
                break  # exhausted at the top level: separated
        else:
            undecided.append((a, b))
    classes: dict = {}
    for t in nodes:
        classes.setdefault(uf.find(padded(t)), []).append(t)
    return tuple(tuple(v) for _, v in sorted(classes.items())), joined, undecided


def _isometry_rows(ring, rank_cap):
    """Rows <a_1>+..+<a_m> - <b_1>-..-<b_m> on the square class columns: for
    rank_cap >= 2 the first member of each closed-form rank-2 class minus
    each other member, then for 3 <= m <= rank_cap each pair a search joined.

    These span the rows of every rank-m class, m <= rank_cap: a class is
    connected by search joins and two-entry rewrites, and a rewrite
    (x,y) -> (x',y') inside one rank-2 class has row row(x,y) - row(x',y'),
    a difference of rank-2 rows.  snf.hnf_rows returns the reduced Hermite
    basis, unique per lattice (Cohen 2.4.3), so all class rows give the same.
    """
    cd = _class_data(ring)
    classes = sorted(set(cd.rank2_class.values())) if rank_cap >= 2 else []
    pairs = [(base, other) for base, *others in classes for other in others]
    undecided = []
    for m in range(3, rank_cap + 1):
        _, joined, open_pairs = _tuple_classes(ring, m, 0)
        pairs += joined
        undecided += open_pairs
    rows = [tuple(ta.count(c) - tb.count(c) for c in range(cd.k)) for ta, tb in pairs]
    notes: dict = {"rank_cap": rank_cap}
    if undecided:
        notes["undecided"] = undecided
    return rows, notes


# ---------------------------------------------------------------------------
# group structure via SNF
# ---------------------------------------------------------------------------


class AbelianGroupStructure:
    """Invariant factors plus an exact coordinate map from generators.

    Coordinates are tuples: torsion entries first (reduced mod the aligned
    invariant factor), then free entries.
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.ring = presentation.ring
        self.generators = presentation.generators
        g = len(self.generators)
        self._g = g
        reduced = snf.hnf_rows([list(r) for r in presentation.rows], g)
        self._lattice_basis = reduced
        form = snf.smith_normal_form([list(r) for r in reduced], g)
        if not form.verify([list(r) for r in reduced]):
            raise GroupsError("Smith normal form self-check failed")
        self._Vinv = snf.int_inverse_unimodular(form.V)
        rank = len(form.diag)
        if rank != len(reduced):
            raise GroupsError("relation lattice rank accounting failed")
        self._rank = rank
        self._torsion_positions = [i for i, d in enumerate(form.diag) if d >= 2]
        self.invariant_factors = tuple(form.diag[i] for i in self._torsion_positions)
        self.free_rank = g - rank
        self._index = presentation.column_of
        # rows of V restricted to the coordinate columns: torsion, then free
        kept = self._torsion_positions + list(range(rank, g))
        self._V_kept = [tuple(Vi[j] for j in kept) for Vi in form.V]
        if not certify.relations_vanish(self, presentation.rows):
            raise GroupsError("a relation row does not map to zero")

    # -- coordinate plumbing -------------------------------------------------

    def coords_of_row(self, row):
        """The coordinate columns of row * V, from the nonzero entries of row."""
        y = list(self.zero_coords)
        for i, c in enumerate(row):
            if c:
                for j, v in enumerate(self._V_kept[i]):
                    y[j] += c * v
        return self._normalize(tuple(y))

    def coords_of_group_ring(self, elt: GroupRingElement):
        if elt.ring is not self.ring and elt.ring != self.ring:
            raise GroupsError(f"an element over {elt.ring} in a structure over {self.ring}")
        return self.coords_of_row(elt.to_row(self._index, self._g))

    def coords_of_generator(self, u: RingElement):
        return self.coords_of_group_ring(GroupRingElement.generator(u))

    def generator_images(self):
        """The coordinates of <u> for each unit u with a column."""
        return {
            self.ring.format_element(u.data): list(self.coords_of_generator(u))
            for u in self.ring.units() if u.data in self._index
        }

    @property
    def zero_coords(self):
        return (0,) * (len(self.invariant_factors) + self.free_rank)

    def is_zero(self, coords):
        return all(c == 0 for c in coords)

    def add_coords(self, a, b):
        return self._normalize(tuple(x + y for x, y in zip(a, b)))

    def _normalize(self, coords):
        nt = len(self.invariant_factors)
        torsion = tuple(
            c % d for c, d in zip(coords[:nt], self.invariant_factors)
        )
        return torsion + coords[nt:]

    def torsion_order(self):
        return math.prod(self.invariant_factors)

    def section(self, coords):
        """A generator-coefficient vector mapping to the given coordinates."""
        nt = len(self.invariant_factors)
        y = [0] * self._g
        for pos, c in zip(self._torsion_positions, coords[:nt]):
            y[pos] = c
        for i, c in enumerate(coords[nt:]):
            y[self._rank + i] = c
        x = [sum(y[i] * self._Vinv[i][j] for i in range(self._g)) for j in range(self._g)]
        return tuple(x)

    def section_group_ring(self, coords) -> GroupRingElement:
        x = self.section(coords)
        return GroupRingElement(
            self.ring,
            {gen.data: c for gen, c in zip(self.generators, x) if c},
        )

    def product(self, a, b):
        """Induced ring product on coordinates (lift, multiply, project)."""
        ea = self.section_group_ring(a)
        eb = self.section_group_ring(b)
        return self.coords_of_group_ring(ea * eb)

    def contains_in_lattice(self, elt: GroupRingElement) -> bool:
        """True iff elt lies in the relation lattice (class is zero)."""
        return self.is_zero(self.coords_of_group_ring(elt))

    def to_json(self):
        return {
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "generator_images": self.generator_images(),
        }

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def group_structure(presentation: Presentation) -> AbelianGroupStructure:
    """The structure of presentation, built once and kept on it (library
    presentations are one object per ring, kind and rank cap)."""
    if presentation.structure is None:
        presentation.structure = AbelianGroupStructure(presentation)
    return presentation.structure


def kmw_structure(ring: LocalRing) -> AbelianGroupStructure:
    return group_structure(kmw_presentation(ring))


def gw_structure(ring: LocalRing, rank_cap: int | None = None) -> AbelianGroupStructure:
    s = group_structure(gw_presentation(ring, rank_cap))
    # soundness guard: distinct determinant classes stay distinct in GW
    if s.free_rank == 1 and s.torsion_order() < len(ring.square_classes()):
        raise GroupsError(
            "GW lattice over-collapsed below the determinant invariant"
        )
    return s


def witt_structure(ring: LocalRing, rank_cap: int | None = None) -> AbelianGroupStructure:
    return group_structure(witt_presentation(ring, rank_cap))


def ktilde_structure(ring: LocalRing) -> AbelianGroupStructure:
    return group_structure(ktilde_presentation(ring))


def augmentation_ideal(presentation: Presentation) -> AbelianGroupStructure:
    """Structure of the kernel of the rank map: drop the <1> column.

    Valid because every relation row has coefficient sum zero, hence is a
    combination of the differences <u> - <1>.
    """
    presentation.check_rank_zero_rows()
    ring = presentation.ring
    one = presentation.column_of[ring.one.data]
    keep = [i for i in range(len(presentation.generators)) if i != one]
    gens = tuple(presentation.generators[i] for i in keep)
    rows = tuple(tuple(r[i] for i in keep) for r in presentation.rows)
    sub = Presentation(ring, gens, _dedupe_rows(rows), presentation.kind + "-augmentation")
    return AbelianGroupStructure(sub)


# ---------------------------------------------------------------------------
# comparison map K0^MW -> GW
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    ring: LocalRing
    kmw: AbelianGroupStructure
    gw: AbelianGroupStructure
    matrix: list                    # images of KMW coordinate basis vectors
    kernel_invariant_factors: tuple
    kernel_free_rank: int
    is_isomorphism: bool
    notes: dict                     # the GW presentation's notes

    def to_json(self):
        return {
            "kernel": {
                "free_rank": self.kernel_free_rank,
                "invariant_factors": list(self.kernel_invariant_factors),
            },
            "cokernel": {"free_rank": 0, "invariant_factors": []},
            "is_isomorphism": self.is_isomorphism,
            "matrix": self.matrix,
        }


def _kmw_rows_in_gw_basis(pk: Presentation, sg: AbelianGroupStructure):
    """Each Milnor-Witt row as integer coefficients over the GW lattice
    basis; GroupsError if one is not in the GW lattice."""
    rel_rows = []
    for row in pk.rows:
        coeffs = snf.solve_in_rowspace(sg._lattice_basis, row)
        if coeffs is None:
            raise GroupsError("Milnor-Witt row missing from the GW lattice")
        rel_rows.append(coeffs)
    return rel_rows


def comparison_map(ring: LocalRing, rank_cap: int | None = None) -> ComparisonReport:
    """The surjection K0^MW(R) -> GW(R), <u> -> <u>, in structure coordinates.

    Its kernel is the quotient of the GW relation lattice by the Milnor-Witt
    relation lattice (the map is induced by the identity of Z[R*/R*^2]).
    """
    pk = kmw_presentation(ring)
    sk = group_structure(pk)
    sg = gw_structure(ring, rank_cap)
    notes = gw_presentation(ring, rank_cap).notes

    # matrix: image of each KMW coordinate basis vector inside GW coordinates
    dim_k = len(sk.invariant_factors) + sk.free_rank
    matrix = []
    for i in range(dim_k):
        unit_coords = tuple(1 if j == i else 0 for j in range(dim_k))
        x = sk.section(unit_coords)
        matrix.append(list(sg.coords_of_row(x)))

    # kernel = L_GW / L_KMW; its invariant factors are those of any basis of
    # the solved KMW rows, so the SNF runs on their HNF
    rel_rows = _kmw_rows_in_gw_basis(pk, sg)
    r = len(sg._lattice_basis)
    form = snf.smith_normal_form(snf.hnf_rows(rel_rows, r), r)
    factors = tuple(d for d in form.diag if d >= 2)
    kernel_free = r - len(form.diag)
    is_iso = not factors and kernel_free == 0
    return ComparisonReport(ring, sk, sg, matrix, factors, kernel_free, is_iso, notes)


# ---------------------------------------------------------------------------
# classes of spaces and products
# ---------------------------------------------------------------------------


def gw_class(space: BilinearSpace, structure: AbelianGroupStructure | None = None):
    """Coordinates of [space] in GW(R): stably diagonalize, then map
    sum <u_i> - r <-1> through the structure."""
    if structure is None:
        structure = gw_structure(space.ring)
    units, r, _ = stable_diagonalize(space)
    ring = space.ring
    coeffs = {ring.neg[1]: -r}
    for u in units:
        if not u.is_unit():
            raise GroupsError(f"{u!r} is not a unit")
        coeffs[u.data] = coeffs.get(u.data, 0) + 1
    return structure.coords_of_group_ring(GroupRingElement(ring, coeffs))


def product_table(structure: AbelianGroupStructure):
    """Products of the pairs of units with a column, in structure coordinates."""
    out = {}
    fmt = structure.ring.format_element
    units = [u for u in structure.ring.units() if u.data in structure._index]
    for a in units:
        for b in units:
            out[fmt(a.data), fmt(b.data)] = structure.coords_of_generator(a * b)
    return out


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------


@dataclass
class SteinbergReport:
    ring: LocalRing
    asserted: bool
    annihilation_failures: list
    square_hyperbolic_failures: list

    @property
    def ok(self):
        return not self.annihilation_failures and not self.square_hyperbolic_failures

    def to_json(self):
        fmt = self.ring.format_element
        return {
            "ring": self.ring.spec,
            "asserted": self.asserted,
            "annihilation_failures": [fmt(a) for a in self.annihilation_failures],
            "square_hyperbolic_failures": [fmt(a) for a in self.square_hyperbolic_failures],
        }


def verify_steinberg_consequences(ring: LocalRing) -> SteinbergReport:
    """Check <<a>><<-a>> = 0 and <<a^2>> = <<a>> h in the Steinberg-only
    quotient for every unit a.

    The identities are theorems when the residue field avoids F_2 and F_3;
    for other rings the report is informational.
    """
    F = ring.residue_field()
    asserted = F.size not in (2, 3)
    s = ktilde_structure(ring)
    h = GroupRingElement.hyperbolic(ring)
    ann_failures = []
    sq_failures = []
    for a in ring.units():
        pa = GroupRingElement.pfister(a)
        pna = GroupRingElement.pfister(-a)
        if not s.contains_in_lattice(pa * pna):
            ann_failures.append(a.data)
        lhs = GroupRingElement.pfister(a * a)
        rhs = pa * h
        if not s.contains_in_lattice(lhs - rhs):
            sq_failures.append(a.data)
    return SteinbergReport(ring, asserted, ann_failures, sq_failures)


@dataclass
class Rank2Report:
    ring: LocalRing
    samples: int
    failures: int

    @property
    def ok(self):
        return self.failures == 0


def verify_rank2_equality(ring: LocalRing, samples: int, rng) -> Rank2Report:
    """For witnessed isometries <a,b> = <c,d>, the difference row lies in
    the Milnor-Witt relation lattice (residue field != F_2)."""
    if ring.residue_field().size == 2:
        raise GroupsError("the rank-2 equality is only claimed away from residue field F_2")
    s = kmw_structure(ring)
    failures = 0
    done = 0
    while done < samples:
        a, b = ring.random_unit(rng), ring.random_unit(rng)
        space = BilinearSpace.diagonal(ring, (a, b))
        v = (ring.random_element(rng), ring.random_element(rng))
        if not space.eval_q(v).is_unit():
            continue
        # complement generator inside the plane
        e1, e2 = space.standard_basis()
        w = tuple(
            space.eval_b(e2, v) * x - space.eval_b(e1, v) * y
            for x, y in zip(e1, e2)
        )
        if not space.eval_q(w).is_unit():
            continue
        c, d = space.eval_q(v), space.eval_q(w)
        elt = (
            GroupRingElement.generator(a)
            + GroupRingElement.generator(b)
            - GroupRingElement.generator(c)
            - GroupRingElement.generator(d)
        )
        if not s.contains_in_lattice(elt):
            failures += 1
        done += 1
    return Rank2Report(ring, samples, failures)


# ---------------------------------------------------------------------------
# stable isometry oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleClassification:
    ring: LocalRing
    rank_cap: int
    stab_cap: int
    classes: dict                    # rank -> tuple of tuples of multisets
    undecided: list
    _class_of: dict = dc_field(default_factory=dict)

    def same_class(self, tup_a, tup_b) -> bool:
        if len(tup_a) != len(tup_b):
            return False
        return self._class_of[tuple(sorted(tup_a))] == self._class_of[tuple(sorted(tup_b))]

    def to_json(self):
        cd = _class_data(self.ring)
        fmt = lambda tup: [repr(cd.reps[c]) for c in tup]
        return {
            "ring": self.ring.spec,
            "rank_cap": self.rank_cap,
            "stab_cap": self.stab_cap,
            "classes": {
                str(rank): [[fmt(t) for t in comp] for comp in comps]
                for rank, comps in self.classes.items()
            },
            "undecided": [[fmt(a), fmt(b)] for a, b in self.undecided],
        }


def stable_isometry_oracle(ring: LocalRing, rank_cap: int = 3,
                           stab_cap: int = 2) -> OracleClassification:
    """Classify diagonal unit tuples of rank <= rank_cap up to isometry
    after padding both sides with <1>^s, s <= stab_cap (see _tuple_classes).
    Pairs beyond all methods are reported as undecided rather than guessed.
    """
    classes: dict = {}
    undecided: list = []
    class_of: dict = {}
    for m in range(1, rank_cap + 1):
        classes[m], _, open_pairs = _tuple_classes(ring, m, stab_cap)
        undecided.extend(open_pairs)
        for i, members in enumerate(classes[m]):
            class_of.update(dict.fromkeys(members, i))
    return OracleClassification(ring, rank_cap, stab_cap, classes, undecided, class_of)
