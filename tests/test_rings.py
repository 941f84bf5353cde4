import itertools
import os
import re
import sys

import pytest

from wittlab import rings
from wittlab import (
    BilinearSpace,
    NonUnitError,
    NotLocalError,
    RingSyntaxError,
    TooLargeError,
    parse_ring,
)

from conftest import F2_RESIDUE_SPECS, MATRIX_SPECS

# the benchmark's independent ring arithmetic
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import ringcheck  # noqa: E402


def test_parse_counterexample_ring():
    R = parse_ring("GF(2)[x]/(x^4)")
    assert R.size == 16
    assert len(R.units()) == 8
    assert R.residue_field().spec == "GF(2)"
    assert not R.is_field


def test_parse_z6_not_local():
    with pytest.raises(NotLocalError):
        parse_ring("Z/6")


def test_parse_reducible_modulus_not_local():
    with pytest.raises(NotLocalError):
        parse_ring("GF(2)[x]/(x^2+x)")


def test_parse_z9():
    R = parse_ring("Z/9")
    assert R.size == 9
    assert len(R.units()) == 6
    assert R.residue_field().spec == "GF(3)"


def test_size_cap():
    with pytest.raises(TooLargeError):
        parse_ring("Z/8192")
    R = parse_ring("Z/8192", size_cap=10000)
    assert R.size == 8192


def test_large_exponents_are_refused_before_they_are_built():
    with pytest.raises(TooLargeError, match="degree 99999999 exceeds the size cap 4096"):
        parse_ring("GF(3)[x]/(x^99999999)")
    with pytest.raises(TooLargeError, match="degree 5000 exceeds the size cap 4096"):
        parse_ring("GF(3)[x]/(x^2500x^2500)")
    # the size is printed as q^d, not expanded
    with pytest.raises(TooLargeError, match=r"^\|R\| = 3\^4000 exceeds the size cap 4096$"):
        parse_ring("GF(3)[x]/(x^4000)")
    assert parse_ring("GF(2)[x]/(x^13)", size_cap=2 ** 13).size == 2 ** 13


@pytest.mark.parametrize("spec, products", [
    ("GF(3)[x]/(x^2)", "GF(3)[x]/(x*x)"),
    ("GF(2)[x]/(x^4+x^0)", "GF(2)[x]/(xxxx+1)"),
    ("GF(5)[t]/(t^1+t^0)", "GF(5)[t]/(t+1)"),
    ("GF(4)[y]/(y^2+a^0)", "GF(4)[y]/(yy+1)"),
    ("GF(4)[y]/(y^2+a^7)", "GF(4)[y]/(yy+a)"),
    ("GF(4)[y]/(y^2+a^2000000)", "GF(4)[y]/(yy+aa)"),
    ("GF(8)[y]/(y^2+a^9)", "GF(8)[y]/(yy+aa)"),
])
def test_exponents_parse_to_the_same_modulus_as_products(spec, products):
    assert parse_ring(spec).modulus == parse_ring(products).modulus


def test_grammar_rejections():
    for bad in ["GF(6)", "Q/4", "GF(2)[a]/(a^2)", "GF(2)[x]/(x^2+y)", "Z/0"]:
        with pytest.raises((RingSyntaxError, NotLocalError)):
            parse_ring(bad)


def test_whitespace_insensitive_and_canonical_spec():
    R1 = parse_ring(" GF(2) [x] / (x^4) ")
    R2 = parse_ring("GF(2)[x]/(x^4)")
    assert R1 == R2
    assert R2.spec == "GF(2)[x]/(x^4)"
    assert parse_ring("Z/9").spec == "Z/9"
    assert parse_ring("GF(4)").spec == "GF(4)"


def test_spec_whitespace_is_every_isspace_code_point():
    """parse_ring strips with str.split(), which removes exactly what the
    regex \\s+ removed: the code points whose isspace() is true."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(everything.split()) == re.sub(r"\s+", "", everything)
    spaces = [c for c in everything if c.isspace()]
    assert len(spaces) >= 25
    for c in spaces:
        assert parse_ring(f"{c}Z/{c}{c}9{c}") is parse_ring("Z/9")


def test_mul_example_from_counterexample_ring():
    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    lhs = (R.one + x) * R.element_from_json([1, 0, 1, 1])
    assert lhs == R.element_from_json([1, 1, 1])  # 1 + x + x^2


def test_inverses():
    Z9 = parse_ring("Z/9")
    assert Z9.from_int(4).inv() == Z9.from_int(7)
    # exhaustive oracle: 4*u = 1 has exactly one solution
    sols = [u for u in Z9.units() if (Z9.from_int(4) * u) == Z9.one]
    assert sols == [Z9.from_int(7)]
    assert Z9.one.inv() == Z9.one
    with pytest.raises(NonUnitError):
        Z9.from_int(3).inv()

    for spec in ["GF(2)[x]/(x^4)", "GF(9)", "GF(4)[y]/(y^2)", "Z/27"]:
        R = parse_ring(spec)
        for u in R.units():
            assert u * u.inv() == R.one


# Rings whose every inverse a^(|R*|-1) is checked: every residue field of the
# shared test rings, the GF(4) coefficient field of GF(4)[y]/(y^2),
# GF(2)[x]/(x^11), whose 2048 elements parse without a pairwise check, and
# Z/1024, a Z/N above the table bound.
INVERSE_RINGS = {f"residue of {spec}": parse_ring(spec).residue_field()
                 for spec in MATRIX_SPECS + F2_RESIDUE_SPECS}
INVERSE_RINGS["base of GF(4)[y]/(y^2)"] = parse_ring("GF(4)[y]/(y^2)").base
INVERSE_RINGS["GF(2)[x]/(x^11)"] = parse_ring("GF(2)[x]/(x^11)")
INVERSE_RINGS["Z/1024"] = parse_ring("Z/1024")


@pytest.mark.parametrize("label", list(INVERSE_RINGS))
def test_inverses_exhaustive(label):
    ring = INVERSE_RINGS[label]
    for _ in range(2):  # the second pass reads the memo
        for x in ring.elements():
            if x.is_unit():
                assert x * x.inv() == ring.one
            else:
                with pytest.raises(NonUnitError) as info:
                    x.inv()
                assert str(info.value) == f"{x!r} is not a unit of {ring.spec}"


class _TableRing(rings.LocalRing):
    """A ring given by literal tables of sums and products: it defines only
    the family methods, and no inverse or negation of its own."""

    def __init__(self, spec, add, mul, characteristic, residue, residue_map):
        super().__init__()
        self.spec, self.size, self.is_field = spec, len(add), residue is None
        self._residue = self if residue is None else residue
        self._tables, self._residue_map = (add, mul), residue_map
        self._characteristic = characteristic
        self._build_kernel()

    def _add_row(self, a):
        return list(self._tables[0][a])

    def _mul_row(self, a):
        return list(self._tables[1][a])

    def _add_op(self, a, b):
        return self._tables[0][a][b]

    def _mul_op(self, a, b):
        return self._tables[1][a][b]

    def _residue_list(self):
        return [self._residue_map(a) for a in range(self.size)]

    def from_int(self, n):
        return self.elems[n % self._characteristic]

    def _rjson(self, a):
        return a

    def element_from_json(self, obj):
        return self.elems[obj]

    def format_element(self, a):
        return str(a)


def _table_gf4():
    """GF(4) = {0, 1, a, a+1} at indices 0..3: sums are XOR, a^2 = a + 1."""
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    return _TableRing("GF(4) by tables", [[a ^ b for b in range(4)] for a in range(4)],
                      mul, 2, None, lambda a: a)


def _table_gf3_xy():
    """GF(3)[x,y]/(x^2, xy, y^2), whose maximal ideal (x, y) is not
    principal: c + u x + v y at index c + 3u + 9v."""
    def split(a):
        return a % 3, a // 3 % 3, a // 9

    def index(c, u, v):
        return c % 3 + 3 * (u % 3) + 9 * (v % 3)

    add = [[index(*(s + t for s, t in zip(split(a), split(b)))) for b in range(27)]
           for a in range(27)]
    mul = []
    for a in range(27):
        c, u, v = split(a)
        mul.append([index(c * d, c * s + u * d, c * t + v * d)
                    for d, s, t in map(split, range(27))])
    return _TableRing("GF(3)[x,y]/(x^2,xy,y^2)", add, mul, 3, parse_ring("GF(3)"),
                      lambda a: a % 3)


def test_a_ring_given_by_tables_derives_inverses_and_negatives():
    """LocalRing derives inversion as a^(|R*|-1) and negation as (-1)·a from
    a family's products alone."""
    F4 = _table_gf4()
    one, a, a1 = F4.elems[1:]
    assert [u.inv() for u in (one, a, a1)] == [one, a1, a]
    assert [-x for x in F4.elems] == list(F4.elems)
    assert F4.units() == (one, a, a1)
    assert F4.square_classes().reps == (one,)
    with pytest.raises(NonUnitError):
        F4.zero.inv()

    R = _table_gf3_xy()
    assert len(R.units()) == 18 and len(R.maximal_ideal()) == 9
    for e in R.elems:
        c, u, v = e.data % 3, e.data // 3 % 3, e.data // 9
        assert (-e).data == (-c) % 3 + 3 * ((-u) % 3) + 9 * ((-v) % 3)
        assert e + (-e) == R.zero and -e == R.minus_one * e
        if e.is_unit():
            # (c + n)(c - n) = c^2 - n^2 = 1, as n^2 = 0 and c = ±1
            assert e.inv().data == c + 3 * ((-u) % 3) + 9 * ((-v) % 3)
    # the squares are 1 + (x, y), so the classes are those of 1 and 2 = -1
    sc = R.square_classes()
    assert [r.data for r in sc.reps] == [1, 2]
    assert sorted(s.data for s in sc.squares) == [1 + 3 * k for k in range(9)]


def test_ring_state_is_built_once():
    R = parse_ring("GF(4)[y]/(y^2)")
    assert R.units() is R.units()


@pytest.mark.parametrize("spec", ["Z/9", "GF(4)", "GF(3)[x]/(x^2)"])
def test_equal_elements_of_separately_parsed_rings_hash_equal(spec, monkeypatch):
    R = parse_ring(spec)
    monkeypatch.setattr(rings, "_parse_cache", {})
    S = parse_ring(spec)
    assert S is not R
    for a, b in zip(R.elements(), S.elements()):
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    vectors = {tuple(R.elements())}
    assert tuple(S.elements()) in vectors


def test_square_roots_are_first_in_unit_order():
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)", "GF(5)"]:
        ring = parse_ring(spec)
        roots = ring.square_classes().roots
        for s, r in roots.items():
            assert r == next(u for u in ring.units() if (u * u).data == s)
        assert len(roots) == len(ring.square_classes().squares)


def test_square_classes_counterexample_ring():
    R = parse_ring("GF(2)[x]/(x^4)")
    sc = R.square_classes()
    assert len(sc.reps) == 4
    squares = {repr(s) for s in sc.squares}
    assert squares == {"1", "1+x^2"}
    # the four stated representatives are pairwise inequivalent, hence a
    # complete system of representatives
    stated = [
        R.element_from_json([1]),
        R.element_from_json([1, 1]),
        R.element_from_json([1, 1, 1]),
        R.element_from_json([1, 0, 1, 1]),
    ]
    assert len({sc.class_index[u.data] for u in stated}) == 4


def test_square_classes_small_fields():
    assert len(parse_ring("GF(4)").square_classes()) == 1
    Z9 = parse_ring("Z/9")
    sc = Z9.square_classes()
    assert len(sc) == 2
    assert {s.data for s in sc.squares} == {u.data for u in Z9.units() if u.data in {1, 4, 7}}


def test_reduce_lift():
    Z9 = parse_ring("Z/9")
    F3 = Z9.residue_field()
    assert Z9.reduce(Z9.from_int(7)) == F3.one
    R = parse_ring("GF(2)[x]/(x^4)")
    v = R.element_from_json([1, 1, 0, 1])
    assert R.reduce(v) == R.residue_field().one
    R2 = parse_ring("GF(4)[y]/(y^2)")
    F4 = R2.residue_field()
    alpha = F4.element_from_json([0, 1])
    assert R2.reduce(R2.lift(alpha)) == alpha
    for spec in ["Z/27", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)", "GF(3)[x]/(x^2)"]:
        ring = parse_ring(spec)
        F = ring.residue_field()
        for xbar in F.elements():
            assert ring.reduce(ring.lift(xbar)) == xbar


def test_reduce_is_ring_homomorphism():
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        elems = list(ring.elements())
        for a in elems[:8]:
            for b in elems[:8]:
                assert ring.reduce(a + b) == ring.reduce(a) + ring.reduce(b)
                assert ring.reduce(a * b) == ring.reduce(a) * ring.reduce(b)
        # kernel of reduce is exactly the maximal ideal
        for a in elems:
            assert ring.reduce(a).is_zero() == (not a.is_unit())


def test_unit_xor_maximal_ideal():
    for spec in ["Z/9", "Z/27", "GF(2)[x]/(x^4)", "GF(8)", "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        units = ring.units()
        ideal = ring.maximal_ideal()
        assert len(units) + len(ideal) == ring.size
        assert not (set(u.data for u in units) & set(m.data for m in ideal))


def test_nonunit_additive_closure():
    """Parsing proves locality from the modulus alone (a prime power, or a
    power of one irreducible); the non-units then form an ideal."""
    for spec in MATRIX_SPECS + F2_RESIDUE_SPECS:
        ring = parse_ring(spec)
        ideal = ring.maximal_ideal()
        for a, b in itertools.product(ideal, repeat=2):
            assert not (a + b).is_unit()


def test_square_class_counting_identity():
    for spec in ["Z/9", "Z/27", "GF(2)[x]/(x^4)", "GF(5)", "GF(9)", "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        sc = ring.square_classes()
        assert len(sc.reps) * len(sc.squares) == len(ring.units())


def test_is_square_matches_enumeration():
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(5)"]:
        ring = parse_ring(spec)
        image = {(u * u).data for u in ring.units()}
        for u in ring.units():
            assert ring.is_square(u) == (u.data in image)


def test_char2_residue_frobenius_injective():
    for spec in ["GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)", "GF(8)"]:
        F = parse_ring(spec).residue_field()
        images = {(x * x).data for x in F.elements()}
        assert len(images) == F.size


def test_ring_axioms_sampled(rng):
    for spec in ["Z/27", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)", "GF(9)"]:
        ring = parse_ring(spec)
        for _ in range(60):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            c = ring.random_element(rng)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a + (-a) == ring.zero
            assert a * ring.one == a


def test_element_json_round_trip():
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        for e in ring.elements():
            assert ring.element_from_json(e.to_json()) == e


def test_element_ordering_and_repr():
    R = parse_ring("GF(2)[x]/(x^4)")
    elems = sorted(R.elements(), key=lambda e: e.sort_key())
    # sorted order matches the carrier enumeration order
    assert elems == list(R.elements())
    assert repr(elems[0]) == "0"
    assert repr(elems[1]) == "1"
    assert repr(R.element_from_json([0, 0, 1])) == "x^2"


# ---------------------------------------------------------------------------
# arithmetic tables
# ---------------------------------------------------------------------------

# the benchmark's own arithmetic names GF(p) as Z/p and GF(p^k) by the
# polynomial that default_irreducible picks for it
_RINGCHECK_SPECS = {
    "GF(2)": "Z/2", "GF(3)": "Z/3", "GF(5)": "Z/5", "GF(7)": "Z/7",
    "GF(4)": "GF(2)[x]/(x^2+x+1)",
    "GF(8)": "GF(2)[x]/(x^3+x+1)",
    "GF(9)": "GF(3)[x]/(x^2+1)",
    "GF(256)": "GF(2)[x]/(x^8+x^4+x^3+x+1)",
}
# rings up to TABLE_SIZE_BOUND elements: the shared test rings, 256-element
# ones over a prime field and over GF(16), and residue fields of degree 2
TABLE_SPECS = MATRIX_SPECS + F2_RESIDUE_SPECS + [
    "GF(2)[x]/(x^3)", "Z/243", "GF(256)", "GF(16)[z]/(z^2)",
    "GF(2)[x]/(x^4+x^2+1)", "GF(3)[x]/(x^4+2x^2+1)",
]


def _independent_ring(spec):
    """The benchmark's value-level ring for spec: its elements are dense
    coefficient tuples, with their own add, mul, neg and JSON."""
    if spec == "GF(16)[z]/(z^2)":
        gf16 = ringcheck._Quot(ringcheck._Zn(2), (1, 1, 0, 0, 1))   # x^4+x+1
        return ringcheck._Quot(gf16, (gf16.zero, gf16.zero, gf16.one))
    return ringcheck._value_ring(_RINGCHECK_SPECS.get(spec, spec))


def _direct_ops(ring):
    """Sum, product and negative of element data by arithmetic on native
    ints or on coefficient tuples, as rings above the table bound do."""
    if isinstance(ring, rings.Zmod):
        return ring._add_op, ring._mul_op, lambda a: -a % ring.size
    return ring._add_op, ring._mul_op, \
        lambda a: ring._index(rings._pneg(ring.base, ring._coeffs[a]))


def _sort_key_of_json(obj, degrees):
    """The order elements had when they were coefficient tuples: the
    coefficients' own keys from the highest degree down, zero-padded to the
    degree at each level of the tower."""
    if not degrees:
        return obj
    inner = degrees[1:]
    coeffs = list(obj) + [[] if inner else 0] * (degrees[0] - len(obj))
    return tuple(_sort_key_of_json(c, inner) for c in reversed(coeffs))


def _degrees(ring):
    out = []
    while isinstance(ring, rings.PolyQuotient):
        out.append(ring.degree)
        ring = ring.base
    return out


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_arithmetic_tables_match_direct_and_independent_arithmetic(spec, monkeypatch):
    monkeypatch.setattr(rings, "_parse_cache", {})   # a fresh ring: no rows yet
    ring = parse_ring(spec)
    assert ring.size <= rings.TABLE_SIZE_BOUND
    assert len(ring._state["add"]) == len(ring._state["mul"]) == 0
    add, mul, neg = _direct_ops(ring)
    carrier = range(ring.size)
    for a in carrier:
        assert ring.neg[a] == neg(a)
        add_row, mul_row = ring.add[a], ring.mul[a]
        assert isinstance(add_row, list) and isinstance(mul_row, list)
        for b in carrier:
            assert add_row[b] == add(a, b)
            assert mul_row[b] == mul(a, b)
    assert len(ring._state["add"]) == len(ring._state["mul"]) == ring.size

    check = _independent_ring(spec)
    values = [check.from_json(e.to_json()) for e in ring.elems]
    assert len(set(values)) == ring.size == len(list(check.values()))
    for a in carrier:
        va = values[a]
        assert values[ring.neg[a]] == check.neg(va)
        for b in carrier:
            assert values[ring.add[a][b]] == check.add(va, values[b])
            assert values[ring.mul[a][b]] == check.mul(va, values[b])

    # index order is the order of the old coefficient-tuple sort keys
    degrees = _degrees(ring)
    keys = [_sort_key_of_json(e.to_json(), degrees) for e in ring.elems]
    assert keys == sorted(keys) and len(set(keys)) == ring.size
    for d, e in enumerate(ring.elems):
        assert e.data == d and e.sort_key() == d
        assert ring.element(d) is e and rings.RingElement(ring, d) is e
        assert ring.element_from_json(e.to_json()) is e
    assert ring.zero.data == 0 and ring.one.data == 1


def test_rings_above_the_table_bound_hold_no_table():
    ring = parse_ring("GF(2)[x]/(x^9)")
    assert ring.size == 512 > rings.TABLE_SIZE_BOUND
    x = ring.element_from_json([0, 1])
    y = x ** 8 + x + ring.one
    assert y * y + (-y) == x ** 16 + x ** 2 + ring.one + y
    assert ring.zero - y * x == -(x ** 9 + x ** 2 + x)
    for row in (ring.add[y.data], ring.mul[y.data]):
        assert not isinstance(row, list)
        assert row[x.data] in range(ring.size) and len(row) == 0   # computed, not kept
    add, mul, _ = _direct_ops(ring)
    assert ring.add[y.data][x.data] == add(y.data, x.data) == (y + x).data
    assert ring.mul[y.data][x.data] == mul(y.data, x.data) == (y * x).data
