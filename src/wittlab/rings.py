"""Finite commutative local rings with exact arithmetic.

Rings are built from a small ASCII grammar:

    GF(p) | GF(p^k) | GF(q)[x]/(POLY) | Z/N

where POLY is a polynomial in the bracketed variable with integer
coefficients, or ``a`` for a fixed generator of GF(q).  Whitespace is
ignored.  A parsed ring knows its unit group, its maximal ideal, its
residue field with lift/reduce maps, and its square-class structure.
Everything a ring builds about itself (its arithmetic kernel, units,
product tables, square classes, vector enumerations, group presentations)
is kept in the ring's own state through ``LocalRing.cached``; ``parse_ring``
keeps one ring per spec, so a fresh registry gives fresh rings with empty
state.

An element's data is its index in the carrier, an int in [0, |R|): the
residue itself for ``Z/N``, and sum c_i q^i for the element sum c_i x^i of
``GF(q)[x]/(f)``, each c_i the index of a coefficient.  Index order is the
order of the coefficients read from the highest degree down, zero is 0 and
one is 1 in every ring, and equal data means equal elements.  A family
supplies sums and products (``LocalRing``), negatives and inverses are
derived from products, and all of it is the kernel described at
``LocalRing.cached``.  Hot loops elsewhere index its tables directly:
``certify._b`` (behind ``eval_b``) and ``bilinear._gram_row``, one pass
over a space's nonzero Gram entries each, ``check_congruence``,
``bilinear._lincomb``, ``matrices.Echelon``, ``_dot``,
``mat_det`` and the chain engine, whose vectors are tuples of indices
(``chains``).  An index carries no ring, so spaces, bases, witnesses and
the public chain functions check the ring of the elements they take once,
through ``LocalRing.check_elements``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterator


DEFAULT_SIZE_CAP = 4096
# rings with at most this many elements hold list tables of sums and
# products, of at most TABLE_SIZE_BOUND^2 = 65,536 entries each
TABLE_SIZE_BOUND = 256


class RingError(Exception):
    pass


class RingSyntaxError(RingError):
    """The spec string does not conform to the ring grammar."""


class NotLocalError(RingError):
    """The described quotient is not a local ring."""


class TooLargeError(RingError):
    """The carrier would exceed the configured size cap."""


class NonUnitError(RingError):
    """Inversion was requested for a maximal-ideal element."""


class RingElement:
    """One element of a :class:`LocalRing`: ``data`` is its carrier index.

    A ring holds one element per index, so ``RingElement(ring, d)`` and
    ``ring.element(d)`` return that element."""

    __slots__ = ("ring", "data")

    def __new__(cls, ring: "LocalRing", data: int):
        return ring.elems[data]

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingError(f"elements of {self.ring} and {other.ring} cannot be mixed")
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return ring.elems[ring.add[self.data][other.data]]

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return ring.elems[ring.add[self.data][ring.neg[other.data]]]

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return ring.elems[ring.mul[self.data][other.data]]

    __rmul__ = __mul__

    def __neg__(self):
        return self.ring.elems[self.ring.neg[self.data]]

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inv(self) -> "RingElement":
        return self.ring.elems[self.ring._rinv(self.data)]

    def is_unit(self) -> bool:
        return self.ring.residue_of[self.data] != 0

    def is_zero(self) -> bool:
        return self.data == 0

    def reduce(self) -> "RingElement":
        """Image in the residue field."""
        return self.ring.reduce(self)

    def sort_key(self):
        return self.data

    def to_json(self):
        return self.ring._rjson(self.data)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.data == other.data and self.ring == other.ring

    def __hash__(self):
        # equal elements have equal data; the ring is left to __eq__
        return hash(self.data)

    def __repr__(self):
        return self.ring.format_element(self.data)


class _Rows(dict):
    """``rows[a]`` is ``build(a)``, made on the first lookup of ``a``."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, a):
        row = self[a] = self.build(a)
        return row


class _Computed(dict):
    """A row of a ring above ``TABLE_SIZE_BOUND``, indexed like a table row:
    ``row[b]`` is ``op(a, b)``, computed at every lookup and never kept."""

    __slots__ = ("a", "op")

    def __init__(self, a, op):
        self.a, self.op = a, op

    def __missing__(self, b):
        return self.op(self.a, b)


class LocalRing:
    """Common behaviour of the concrete finite local rings below.

    A family sets ``spec``, ``size``, ``is_field`` and ``_residue``,
    provides ``_add_row``, ``_mul_row``, ``_add_op``, ``_mul_op``,
    ``_residue_list``, ``from_int``, JSON and formatting, and calls
    ``_build_kernel`` once its size is known.  The negative of a is (-1)·a,
    filled lazily, and the inverse of a unit is a^(|R*|-1) (Lagrange)."""

    spec: str
    size: int
    is_field: bool

    def __init__(self):
        self._state: dict = {}

    def cached(self, key, build):
        """The value of ``build()`` for ``key``: built on the first use of
        ``key`` and kept for as long as this ring lives.

        This is the one owner of per-ring state, the arithmetic kernel
        included, which ``_build_kernel`` makes with the ring:
        ``elements``, one interned ``RingElement`` per index (``elems``);
        ``residue_of`` (the index of each element's image in the residue
        field, 0 exactly on the maximal ideal); and the tables ``add``,
        ``mul`` (``add[a][b]``) and ``neg`` (``neg[a] = mul[-1][a]``), whose
        rows and entries are made on first use.  When |R| <= TABLE_SIZE_BOUND
        a row is a list of |R| indices, built by table lookups alone (native
        ints for ``Z/N``; for a polynomial quotient, sums digit by digit and
        products by the shift-and-add recurrence at ``PolyQuotient._mul_row``).
        Above the bound a row computes each entry when it is looked up, so
        every ring is indexed through the same code.  A ring from a fresh
        ``parse_ring`` registry starts with all of it empty."""
        try:
            return self._state[key]
        except KeyError:
            pass
        value = self._state[key] = build()
        return value

    def _build_kernel(self):
        def interned(i):
            e = object.__new__(RingElement)
            e.ring, e.data = self, i
            return e

        self.elems = self.cached("elements", lambda: tuple(map(interned, range(self.size))))
        self.zero, self.one = self.elems[0], self.elems[1]
        self.residue_of = self.cached("residue_of", self._residue_list)
        if self.size <= TABLE_SIZE_BOUND:
            add_row, mul_row = self._add_row, self._mul_row
        else:
            add_row, mul_row = (partial(_Computed, op=op) for op in (self._add_op, self._mul_op))
        self.add = self.cached("add", lambda: _Rows(add_row))
        self.mul = self.cached("mul", lambda: _Rows(mul_row))
        m1 = self.from_int(-1).data
        self.neg = self.cached("neg", lambda: _Rows(lambda a: self.mul[m1][a]))

    def _rinv(self, a):
        """Index of the inverse of the unit with index a, memoized: a^(|R*|-1)
        by Lagrange's theorem, where |R*| = |R| - |m| and |m| = |R| / |F|."""
        if not self.residue_of[a]:
            raise NonUnitError(f"{self.format_element(a)} is not a unit of {self.spec}")
        inverses = self.cached("inverses", dict)
        if a not in inverses:
            order = self.size - self.size // self._residue.size
            inverses[a] = (self.elems[a] ** (order - 1)).data
        return inverses[a]

    def check_elements(self, elements):
        """RingError unless every one of ``elements`` belongs to this ring.
        The data-level loops (``eval_b``, ``check_congruence``, ``mat_det``,
        ...) do not check, so spaces, bases and witnesses check their
        entries here."""
        for e in elements:
            if e.ring is not self and e.ring != self:
                raise RingError(f"elements of {self} and {e.ring} cannot be mixed")

    # -- element factories -------------------------------------------------

    def element(self, data: int) -> RingElement:
        return self.elems[data]

    @property
    def minus_one(self) -> RingElement:
        return self.elems[self.neg[1]]

    # -- enumeration -------------------------------------------------------

    def elements(self) -> Iterator[RingElement]:
        return iter(self.elems)

    def units(self) -> tuple[RingElement, ...]:
        return self.cached("units", lambda: tuple(x for x in self.elems if x.is_unit()))

    def unit_index(self) -> dict:
        """Position in ``units()`` of each unit, keyed by its data."""
        return self.cached("unit_index", lambda: {u.data: i for i, u in enumerate(self.units())})

    def unit_product_table(self) -> tuple:
        """``table[i][j]`` is the position in ``units()`` of the product of
        units i and j, built from |R*|^2 table products on first use."""
        def build():
            data = [u.data for u in self.units()]
            index = self.unit_index()
            mul = self.mul
            return tuple(tuple(index[mul[a][b]] for b in data) for a in data)

        return self.cached("unit_product_table", build)

    def maximal_ideal(self) -> tuple[RingElement, ...]:
        return self.cached(
            "maximal_ideal", lambda: tuple(x for x in self.elems if not x.is_unit())
        )

    def random_element(self, rng) -> RingElement:
        return self.elems[rng.randrange(self.size)]

    def random_unit(self, rng) -> RingElement:
        units = self.units()
        return units[rng.randrange(len(units))]

    # -- residue field -----------------------------------------------------

    def residue_field(self) -> "LocalRing":
        return self._residue

    def reduce(self, x: RingElement) -> RingElement:
        if x.ring != self:
            raise RingError("element does not belong to this ring")
        return self._residue.elems[self.residue_of[x.data]]

    def lift(self, xbar: RingElement) -> RingElement:
        """The lift with the same index: for Z/N the least residue, for a
        quotient the polynomial of degree below that of the irreducible."""
        if xbar.ring != self._residue:
            raise RingError("element does not belong to the residue field")
        return self.elems[xbar.data]

    # -- squares -----------------------------------------------------------

    def square_classes(self) -> "SquareClasses":
        return self.cached("square_classes", lambda: _build_square_classes(self))

    def is_square(self, x: RingElement) -> bool:
        """True iff x is the square of a unit (x must be a unit)."""
        if not x.is_unit():
            raise NonUnitError(f"{x!r} is not a unit of {self.spec}")
        return x.data in self.square_classes().roots

    # -- plumbing ----------------------------------------------------------

    def _verify_lift_section(self):
        for xbar in self._residue.elems:
            if self.residue_of[xbar.data] != xbar.data:
                raise RingError(f"lift/reduce section broken for {xbar!r} in {self.spec}")

    def __eq__(self, other):
        return isinstance(other, LocalRing) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return self.spec


class SquareClasses:
    """Unit square classes R*/(R*)^2 with canonical representatives."""

    __slots__ = ("ring", "reps", "squares", "roots", "class_index")

    def __init__(self, ring, reps, roots, class_index):
        self.ring = ring
        self.reps = reps                # tuple of RingElement, canonical order
        self.roots = roots              # dict: square data -> first unit root in units()
        self.squares = tuple(ring.element(s) for s in roots)  # {u^2 : u unit}
        self.class_index = class_index  # dict: unit data -> index into reps

    def class_of(self, u: RingElement) -> RingElement:
        """Canonical representative of u's square class."""
        return self.reps[self.class_index[u.data]]

    def __len__(self):
        return len(self.reps)


def _build_square_classes(ring: LocalRing) -> SquareClasses:
    units = ring.units()
    mul = ring.mul
    roots: dict = {}
    for u in units:
        roots.setdefault(mul[u.data][u.data], u)
    class_index: dict = {}
    reps = []
    for u in units:
        if u.data in class_index:
            continue
        idx = len(reps)
        reps.append(u)
        row = mul[u.data]
        for s in roots:
            class_index[row[s]] = idx
    if len(reps) * len(roots) != len(units):
        raise RingError(f"square class accounting broken in {ring.spec}")
    F = ring.residue_field()
    if F.size % 2 == 0:
        # Frobenius is injective on a finite field of characteristic 2.
        imgs = {F.mul[x][x] for x in range(F.size)}
        if len(imgs) != F.size:
            raise RingError(f"squaring not injective on residue field of {ring.spec}")
    return SquareClasses(ring, tuple(reps), roots, class_index)


# ---------------------------------------------------------------------------
# Z/N for N = p^k
# ---------------------------------------------------------------------------


class Zmod(LocalRing):
    """Z/p^k with least nonnegative residues; a field when k = 1."""

    def __init__(self, p: int, k: int, display: str | None = None):
        super().__init__()
        self.p = p
        self.k = k
        self.size = p ** k
        self.is_field = k == 1
        self.spec = display if display is not None else f"Z/{self.size}"
        self._residue = self if k == 1 else Zmod(p, 1, display=f"GF({p})")
        self._build_kernel()

    def _add_row(self, a):
        return list(range(a, self.size)) + list(range(a))

    def _mul_row(self, a):
        N = self.size
        return [a * b % N for b in range(N)]

    def _add_op(self, a, b):
        return (a + b) % self.size

    def _mul_op(self, a, b):
        return a * b % self.size

    def _residue_list(self):
        return range(self.size) if self.is_field else [a % self.p for a in range(self.size)]

    def _rjson(self, a):
        return a

    def from_int(self, n: int) -> RingElement:
        return self.elems[n % self.size]

    def element_from_json(self, obj) -> RingElement:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise RingError(f"expected an integer for an element of {self.spec}, got {obj!r}")
        return self.elems[obj % self.size]

    def format_element(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# polynomial helpers over a finite field: trailing-zero-trimmed tuples of
# coefficient indices, computed with the field's tables
# ---------------------------------------------------------------------------


def _ptrim(t):
    n = len(t)
    while n and not t[n - 1]:
        n -= 1
    return tuple(t[:n])


def _padd(base, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = base.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return _ptrim(out)


def _pneg(base, a):
    neg = base.neg
    return tuple(neg[c] for c in a)


def _pmul(base, a, b):
    if not a or not b:
        return ()
    add, mul = base.add, base.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        row = mul[ca]
        for j, cb in enumerate(b):
            out[i + j] = add[out[i + j]][row[cb]]
    return _ptrim(out)


def _pmod(base, a, m):
    """Remainder of a by a monic polynomial m over the base field."""
    add, mul, neg = base.add, base.mul, base.neg
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            row = mul[neg[lead]]
            for i in range(dm + 1):
                a[shift + i] = add[a[shift + i]][row[m[i]]]
        a.pop()
    return _ptrim(a)


def _pmonic(base, a):
    lead = a[-1]
    if lead == 1:
        return a
    row = base.mul[base._rinv(lead)]
    return tuple(row[c] for c in a)


def _min_degree_factor(base, f):
    """Smallest-degree monic divisor of f of degree >= 1 over the base field,
    hence irreducible: f itself when none has degree <= deg(f) / 2.
    Enumeration is fine at the configured size caps.
    """
    for d in range(1, (len(f) - 1) // 2 + 1):
        for g in _monic_polys(base, d):
            if not _pmod(base, f, g):
                return g
    return f


def _monic_polys(base, d):
    """All monic degree-d polynomials over the base field, canonical order."""
    size = base.size
    for idx in range(size ** d):
        coeffs = []
        n = idx
        for _ in range(d):
            coeffs.append(n % size)
            n //= size
        yield tuple(coeffs) + (1,)


def default_irreducible(base: Zmod, k: int) -> tuple:
    """Canonical monic irreducible of degree k over GF(p): least in
    constant-coefficient-first enumeration order."""
    if k >= 1:
        for g in _monic_polys(base, k):
            if _min_degree_factor(base, g) == g:
                return g
    raise RingError(f"no irreducible polynomial of degree {k} over {base.spec}")


# ---------------------------------------------------------------------------
# GF(q)[x]/(f) with f a power of one irreducible (fields included, m = 1)
# ---------------------------------------------------------------------------


class PolyQuotient(LocalRing):
    """GF(q)[x]/(f) where f = g^m for a single monic irreducible g."""

    def __init__(self, base: LocalRing, modulus: tuple, var: str,
                 display: str | None = None, size_cap: int = DEFAULT_SIZE_CAP):
        if not base.is_field:
            raise NotLocalError("polynomial quotients require a field of coefficients")
        super().__init__()
        self.base = base
        self.modulus = modulus  # monic tuple of coefficient indices
        self.var = var
        self.degree = len(modulus) - 1
        if self.degree < 1:
            raise RingSyntaxError("modulus must have degree at least 1")
        self.size = base.size ** self.degree
        if self.size > size_cap:
            raise TooLargeError(
                f"|R| = {base.size}^{self.degree} exceeds the size cap {size_cap}"
            )

        g = _min_degree_factor(base, modulus)
        m = 1
        power = g
        while len(power) < len(modulus):
            power = _pmul(base, power, g)
            m += 1
        if power != modulus:
            raise NotLocalError(
                f"modulus of {display or 'quotient'} is not a power of a single irreducible"
            )
        self.irreducible = g
        self.multiplicity = m
        self.is_field = m == 1

        if display is None:
            display = f"{base.spec}[{var}]/({format_poly(base, modulus, var)})"
        self.spec = display

        if self.is_field:
            self._residue = self
        elif len(g) == 2:
            # linear irreducible: the residue field is the coefficient field,
            # and reduction is evaluation at the root of g
            self._residue = base
            self._root = base.neg[g[0]]
        else:
            self._residue = PolyQuotient(base, g, var, size_cap=size_cap)
        self._coeffs = self.cached("coeffs", self._coeff_list)
        self._build_kernel()

    def _coeff_list(self):
        """The trimmed coefficient tuple of every index."""
        q = self.base.size
        out = [()] + [(a,) for a in range(1, q)]
        for a in range(q, self.size):
            out.append((a % q,) + out[a // q])
        return out

    def _index(self, coeffs):
        q, n = self.base.size, 0
        for c in reversed(coeffs):
            n = n * q + c
        return n

    # kernel builders; a = a_0 + x a' has index a_0 + q a', so a // q is the
    # index of a' and a % q that of a_0
    def _add_row(self, a):
        if not a:
            return list(range(self.size))
        q = self.base.size
        low, high = self.base.add[a % q], self.add[a // q]
        return [low[b % q] + q * high[b // q] for b in range(self.size)]

    def _mul_row(self, a):
        """a b = b_0 a + x (a b'): each entry is two lookups in the row of
        b_0 a, the products by x, and the entry at b' < b."""
        q, add, smul, xmul = self.base.size, self.add, self._smul(), self._xmul()
        scaled = [add[smul[c][a]] for c in range(q)]
        row = [0] * self.size
        for b in range(1, self.size):
            row[b] = scaled[b % q][xmul[row[b // q]]]
        return row

    def _smul(self):
        """``smul[c][a]``: the product of a by the coefficient c."""
        def build(c):
            q, low = self.base.size, self.base.mul[c]
            row = [0] * self.size
            for a in range(1, self.size):
                row[a] = low[a % q] + q * row[a // q]
            return row

        return self.cached("smul", lambda: _Rows(build))

    def _xmul(self):
        """``xmul[a]``: the product of a by x, where x^d = -(f - x^d)."""
        def build():
            top = self.size // self.base.size
            xd = self._index(_pneg(self.base, self.modulus[:-1]))
            add, smul, q = self.add, self._smul(), self.base.size
            return [add[q * (a % top)][smul[a // top][xd]] for a in range(self.size)]

        return self.cached("xmul", build)

    def _add_op(self, a, b):
        return self._index(_padd(self.base, self._coeffs[a], self._coeffs[b]))

    def _mul_op(self, a, b):
        C = self._coeffs
        return self._index(_pmod(self.base, _pmul(self.base, C[a], C[b]), self.modulus))

    def _residue_list(self):
        """Horner's rule: a reduces to a_0 + r (a' reduced), with r the root
        of g in the residue field (the class of x)."""
        if self.is_field:
            return range(self.size)
        F, q = self._residue, self.base.size
        step = F.mul[self._root] if F is self.base else F._xmul()
        out = [0] * self.size
        for a in range(1, self.size):
            out[a] = F.add[a % q][step[out[a // q]]]
        return out

    def _rjson(self, a):
        return [self.base._rjson(c) for c in self._coeffs[a]]

    def from_int(self, n: int) -> RingElement:
        return self.elems[self.base.from_int(n).data]

    def element_from_json(self, obj) -> RingElement:
        if not isinstance(obj, list):
            raise RingError(f"expected a coefficient array for an element of {self.spec}, got {obj!r}")
        coeffs = _ptrim([self.base.element_from_json(c).data for c in obj])
        return self.elems[self._index(_pmod(self.base, coeffs, self.modulus))]

    def format_element(self, a):
        return format_poly(self.base, self._coeffs[a], self.var)


def format_poly(base: LocalRing, coeffs, var: str) -> str:
    """Human-readable polynomial, ascending degree (paper style: 1+x+x^2)."""
    if not coeffs:
        return "0"
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(base.format_element(c))
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c == 1:
            terms.append(v)
        else:
            cs = base.format_element(c)
            if "+" in cs:
                cs = f"({cs})"
            terms.append(f"{cs}*{v}")
    return "+".join(terms)
# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


_GF_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)$")
_ZMOD_RE = re.compile(r"^Z/(\d+)$")
_QUOT_RE = re.compile(r"^(GF\(\d+(?:\^\d+)?\))\[([a-z])\]/\((.+)\)$")
_TOKEN_RE = re.compile(r"\d+|[a-z]|\^|\*|\+|-|\(|\)")

_parse_cache: dict = {}


def _prime_power(n: int):
    """(p, k) with n = p^k, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return n, 1


def _int(token: str) -> int:
    """The int a spec or a JSON number spells, RingSyntaxError when it has
    too many digits for ``int`` (CPython's limit on string conversion)."""
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("-"))
        raise RingSyntaxError(f"integer literal of {digits} digits is too long") from None


def _parse_field(token: str, size_cap: int) -> LocalRing:
    m = _GF_RE.match(token)
    if not m:
        raise RingSyntaxError(f"bad field spec {token!r}")
    p = _int(m.group(1))
    k = _int(m.group(2)) if m.group(2) else 1
    # the cap before factoring p; for p >= 2, p^k exceeds the cap once k
    # exceeds its bit length, so no huge power is computed
    if p > size_cap or (p > 1 and k > size_cap.bit_length()) or p ** k > size_cap:
        raise TooLargeError(f"|{token}| exceeds the size cap {size_cap}")
    if k == 1:
        pp = _prime_power(p)
        if pp is None:
            raise NotLocalError(f"GF({p}) requires a prime power")
        p, k = pp   # GF(q) with q a prime power, e.g. GF(4)
    if _prime_power(p) != (p, 1):
        raise NotLocalError(f"GF({p}^{k}) requires a prime base")
    if k == 1:
        return Zmod(p, 1, display=f"GF({p})")
    prime = Zmod(p, 1, display=f"GF({p})")
    modulus = default_irreducible(prime, k)
    return PolyQuotient(prime, modulus, "a", display=f"GF({p ** k})", size_cap=size_cap)


class _PolyParser:
    """Recursive-descent parser for the POLY piece of the grammar."""

    def __init__(self, text: str, base: LocalRing, var: str, size_cap: int):
        self.toks = _TOKEN_RE.findall(text)
        if "".join(self.toks) != text:
            raise RingSyntaxError(f"bad polynomial {text!r}")
        self.pos = 0
        self.base = base
        self.var = var
        self.size_cap = size_cap

    def _check_degree(self, degree):
        # a modulus of degree d gives |base|^d elements, so a term of degree
        # above the size cap is refused before it is built, cancelled or not
        if degree > self.size_cap:
            raise TooLargeError(
                f"polynomial degree {degree} exceeds the size cap {self.size_cap}"
            )

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        poly = self.sum()
        if self.peek() is not None:
            raise RingSyntaxError(f"unexpected token {self.peek()!r} in polynomial")
        return poly

    def sum(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        poly = self.term()
        if sign < 0:
            poly = _pneg(self.base, poly)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            if op == "-":
                rhs = _pneg(self.base, rhs)
            poly = _padd(self.base, poly, rhs)
        return poly

    def term(self):
        poly = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt is None or not (nxt.isdigit() or nxt.isalpha()):
                return poly
            # "*" or an implicit product like "2x" or "a x"
            rhs = self.factor()
            if poly and rhs:
                self._check_degree(len(poly) + len(rhs) - 2)
            poly = _pmul(self.base, poly, rhs)

    def factor(self):
        t = self.take()
        if t is None:
            raise RingSyntaxError("unexpected end of polynomial")
        if t.isdigit():
            c = self.base.from_int(_int(t)).data
            return (c,) if c else ()
        if t == self.var:
            poly = (0, 1)
        elif t == "a":
            poly = (self._generator(),)
        else:
            raise RingSyntaxError(f"unexpected token {t!r} in polynomial")
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise RingSyntaxError("exponent must be an integer")
            e = _int(e)
            if t == self.var:
                self._check_degree(e)
                return (0,) * e + (1,)
            return ((self.base.elems[poly[0]] ** e).data,)
        return poly

    def _generator(self):
        if isinstance(self.base, PolyQuotient) and self.base.var == "a":
            return self.base._index((0, 1))
        raise RingSyntaxError(f"'a' is undefined over {self.base.spec}")


def parse_ring(spec: str, size_cap: int = DEFAULT_SIZE_CAP) -> LocalRing:
    """Parse a ring spec string; the registry keeps one ring per (spec, cap)."""
    stripped = "".join(spec.split())
    key = (stripped, size_cap)
    if key in _parse_cache:
        return _parse_cache[key]
    ring = _parse_ring_uncached(stripped, size_cap)
    _parse_cache[key] = ring
    _parse_cache[(ring.spec, size_cap)] = ring
    return ring


def _parse_ring_uncached(stripped: str, size_cap: int) -> LocalRing:
    m = _ZMOD_RE.match(stripped)
    if m:
        n = _int(m.group(1))
        if n > size_cap:   # before factoring n
            raise TooLargeError(f"|Z/{n}| exceeds the size cap {size_cap}")
        pp = _prime_power(n)
        if pp is None:
            raise NotLocalError(f"Z/{n} is not local (modulus is not a prime power)")
        p, k = pp
        return Zmod(p, k)

    m = _QUOT_RE.match(stripped)
    if m:
        base = _parse_field(m.group(1), size_cap)
        var = m.group(2)
        if var == "a":
            raise RingSyntaxError("'a' is reserved for the coefficient-field generator")
        poly = _PolyParser(m.group(3), base, var, size_cap).parse()
        if not poly:
            raise RingSyntaxError("modulus must be nonzero")
        if not base.residue_of[poly[-1]]:
            raise RingSyntaxError("modulus must have unit leading coefficient")
        poly = _pmonic(base, poly)
        ring = PolyQuotient(base, poly, var, size_cap=size_cap)
        ring._verify_lift_section()
        return ring

    if _GF_RE.match(stripped):
        ring = _parse_field(stripped, size_cap)
        ring._verify_lift_section()
        return ring

    raise RingSyntaxError(f"cannot parse ring spec {stripped!r}")
