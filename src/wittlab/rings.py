"""Finite commutative local rings with exact arithmetic.

Rings are built from a small ASCII grammar:

    GF(p) | GF(p^k) | GF(q)[x]/(POLY) | Z/N

where POLY is a polynomial in the bracketed variable with integer
coefficients, or ``a`` for a fixed generator of GF(q).  Whitespace is
ignored.  A parsed ring knows its unit group, its maximal ideal, its
residue field with lift/reduce maps, and its square-class structure.
Everything a ring builds lazily about itself (units, product tables, square
classes, vector enumerations, group presentations, arithmetic tables) is
kept in the ring's own state through ``LocalRing.cached``; ``parse_ring``
keeps one ring per spec, so a fresh registry gives fresh rings with empty
state.

Elements are kept in a unique canonical form (least nonnegative residue,
or a trailing-zero-trimmed coefficient tuple over the base field), so
equality of representations is equality in the ring.

Arithmetic on element data: ``Z/N`` works on native ints.  A polynomial
quotient with at most ``TABLE_SIZE_BOUND`` (256) elements answers sums,
products and negatives from arithmetic tables in its state: each pair is
computed once, on its first use, and looked up after that, so a table holds
at most 65,536 entries.  Larger quotients compute every result.  Hot loops
elsewhere (``eval_b``, ``mat_mul``, ``mat_det``, the elimination
``matrices.Echelon``, ``vec_combo``) bind the raw operations once and wrap a
``RingElement`` only around their results.  They do not check which ring an
element belongs to, so spaces, bases and congruence witnesses check their
entries once, through ``LocalRing.check_elements``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterator


DEFAULT_SIZE_CAP = 4096
# polynomial quotients with at most this many elements answer +, * and - from
# tables of at most TABLE_SIZE_BOUND^2 = 65,536 entries each
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
    """One element of a :class:`LocalRing`, in canonical form."""

    __slots__ = ("ring", "data")

    def __init__(self, ring: "LocalRing", data):
        self.ring = ring
        self.data = data

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
        return RingElement(self.ring, self.ring._radd(self.data, other.data))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._radd(self.data, self.ring._rneg(other.data)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._rmul(self.data, other.data))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._rneg(self.data))

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
        return RingElement(self.ring, self.ring._rinv(self.data))

    def is_unit(self) -> bool:
        return self.ring._runit(self.data)

    def is_zero(self) -> bool:
        return self.data == self.ring._zero_data()

    def reduce(self) -> "RingElement":
        """Image in the residue field."""
        return self.ring.reduce(self)

    def sort_key(self):
        return self.ring._rkey(self.data)

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


class LocalRing:
    """Common behaviour of the concrete finite local rings below.

    Subclasses provide the raw data-level arithmetic ``_radd``, ``_rmul``,
    ``_rneg``, ``_rinv``, ``_runit`` plus enumeration and formatting.
    """

    spec: str
    size: int
    is_field: bool

    def __init__(self):
        self._state: dict = {}

    def cached(self, key, build):
        """The value of ``build()`` for ``key``: built on the first use of
        ``key`` and kept for as long as this ring lives.

        This is the one owner of per-ring state, the arithmetic tables of a
        small polynomial quotient included (``add_table``, ``mul_table``,
        ``neg_table``: empty dicts at construction, filled pair by pair on
        first use, only when |R| <= TABLE_SIZE_BOUND).  A ring from a fresh
        ``parse_ring`` registry starts with all of it empty."""
        try:
            return self._state[key]
        except KeyError:
            pass
        value = self._state[key] = build()
        return value

    def check_elements(self, elements):
        """RingError unless every one of ``elements`` belongs to this ring.
        The data-level loops (``eval_b``, ``mat_mul``, ``mat_det``, ...) do
        not check, so spaces, bases and witnesses check their entries here."""
        for e in elements:
            if e.ring is not self and e.ring != self:
                raise RingError(f"elements of {self} and {e.ring} cannot be mixed")

    # -- element factories -------------------------------------------------

    def element(self, data) -> RingElement:
        return RingElement(self, data)

    @property
    def zero(self) -> RingElement:
        return self.element(self._zero_data())

    @property
    def one(self) -> RingElement:
        return self.element(self._one_data())

    @property
    def minus_one(self) -> RingElement:
        return self.element(self._rneg(self._one_data()))

    def from_int(self, n: int) -> RingElement:
        return self.element(self._from_int_data(n))

    # -- enumeration -------------------------------------------------------

    def elements(self) -> Iterator[RingElement]:
        for data in self._carrier():
            yield self.element(data)

    def units(self) -> tuple[RingElement, ...]:
        return self.cached("units", lambda: tuple(x for x in self.elements() if x.is_unit()))

    def unit_index(self) -> dict:
        """Position in ``units()`` of each unit, keyed by its data."""
        return self.cached("unit_index", lambda: {u.data: i for i, u in enumerate(self.units())})

    def unit_product_table(self) -> tuple:
        """``table[i][j]`` is the position in ``units()`` of the product of
        units i and j, built from |R*|^2 raw products on first use."""
        def build():
            data = [u.data for u in self.units()]
            index = self.unit_index()
            rmul = self._rmul
            return tuple(tuple(index[rmul(a, b)] for b in data) for a in data)

        return self.cached("unit_product_table", build)

    def maximal_ideal(self) -> tuple[RingElement, ...]:
        return self.cached(
            "maximal_ideal", lambda: tuple(x for x in self.elements() if not x.is_unit())
        )

    def random_element(self, rng) -> RingElement:
        return self.element(self._carrier()[rng.randrange(self.size)])

    def random_unit(self, rng) -> RingElement:
        units = self.units()
        return units[rng.randrange(len(units))]

    # -- residue field -----------------------------------------------------

    def residue_field(self) -> "LocalRing":
        raise NotImplementedError

    def reduce(self, x: RingElement) -> RingElement:
        if x.ring != self:
            raise RingError("element does not belong to this ring")
        return self.residue_field().element(self._reduce_raw(x.data))

    def lift(self, xbar: RingElement) -> RingElement:
        if xbar.ring != self.residue_field():
            raise RingError("element does not belong to the residue field")
        return self.element(self._lift_raw(xbar.data))

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
        F = self.residue_field()
        for xbar in F.elements():
            if self._reduce_raw(self._lift_raw(xbar.data)) != xbar.data:
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
    roots: dict = {}
    for u in units:
        roots.setdefault(ring._rmul(u.data, u.data), u)
    class_index: dict = {}
    reps = []
    for u in units:
        if u.data in class_index:
            continue
        idx = len(reps)
        reps.append(u)
        for s in roots:
            class_index[ring._rmul(u.data, s)] = idx
    if len(reps) * len(roots) != len(units):
        raise RingError(f"square class accounting broken in {ring.spec}")
    F = ring.residue_field()
    if F.size % 2 == 0:
        # Frobenius is injective on a finite field of characteristic 2.
        imgs = {F._rmul(x.data, x.data) for x in F.elements()}
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

    # raw ops on ints in [0, size)
    def _radd(self, a, b):
        return (a + b) % self.size

    def _rmul(self, a, b):
        return (a * b) % self.size

    def _rneg(self, a):
        return (-a) % self.size

    def _rinv(self, a):
        if a % self.p == 0:
            raise NonUnitError(f"{a} is not a unit of {self.spec}")
        return pow(a, -1, self.size)

    def _runit(self, a):
        return a % self.p != 0

    def _rkey(self, a):
        return a

    def _rjson(self, a):
        return a

    def _zero_data(self):
        return 0

    def _one_data(self):
        return 1

    def _from_int_data(self, n):
        return n % self.size

    def _carrier(self):
        return self.cached("carrier", lambda: tuple(range(self.size)))

    def residue_field(self):
        return self._residue

    def _reduce_raw(self, a):
        return a % self.p

    def _lift_raw(self, abar):
        return abar

    def element_from_json(self, obj) -> RingElement:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise RingError(f"expected an integer for an element of {self.spec}, got {obj!r}")
        return self.element(obj % self.size)

    def format_element(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# polynomial helpers over a finite field (data-level, trailing zeros trimmed)
# ---------------------------------------------------------------------------


def _ptrim(base, t):
    n = len(t)
    z = base._zero_data()
    while n and t[n - 1] == z:
        n -= 1
    return tuple(t[:n])


def _padd(base, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = base._radd(out[i], c)
    return _ptrim(base, out)


def _pneg(base, a):
    return tuple(base._rneg(c) for c in a)


def _pmul(base, a, b):
    if not a or not b:
        return ()
    z = base._zero_data()
    out = [z] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == z:
            continue
        for j, cb in enumerate(b):
            out[i + j] = base._radd(out[i + j], base._rmul(ca, cb))
    return _ptrim(base, out)


def _pdivmod(base, a, m):
    """Divide by a monic polynomial m over the base field."""
    a = list(a)
    dm = len(m) - 1
    z = base._zero_data()
    quo = [z] * max(0, len(a) - dm)
    while len(a) > dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead != z:
            quo[shift] = lead
            for i in range(dm + 1):
                a[shift + i] = base._radd(a[shift + i], base._rneg(base._rmul(lead, m[i])))
        a.pop()
    return _ptrim(base, quo), _ptrim(base, a)


def _pmod(base, a, m):
    return _pdivmod(base, a, m)[1]


def _pmonic(base, a):
    lead = a[-1]
    if lead == base._one_data():
        return a
    inv = base._rinv(lead)
    return tuple(base._rmul(c, inv) for c in a)


def _pxgcd(base, a, b):
    """Extended gcd over base[x]; returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = (base._one_data(),), ()
    t0, t1 = (), (base._one_data(),)
    while r1:
        m = _pmonic(base, r1)
        lead_inv = base._rinv(r1[-1])
        q, r = _pdivmod(base, r0, m)
        q = tuple(base._rmul(c, lead_inv) for c in q)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(base, s0, _pneg(base, _pmul(base, q, s1)))
        t0, t1 = t1, _padd(base, t0, _pneg(base, _pmul(base, q, t1)))
    return r0, s0, t0


def _peval(base, a, c):
    """Evaluate polynomial a at base element c (Horner)."""
    acc = base._zero_data()
    for coeff in reversed(a):
        acc = base._radd(base._rmul(acc, c), coeff)
    return acc


def _min_degree_factor(base, f):
    """Smallest-degree monic divisor of f over the base field.

    The minimal-degree monic divisor of degree >= 1 is automatically
    irreducible.  Enumeration is fine at the configured size caps.
    """
    df = len(f) - 1
    for d in range(1, df + 1):
        for g in _monic_polys(base, d):
            if not _pmod(base, f, g):
                return g
    return f


def _monic_polys(base, d):
    """All monic degree-d polynomials over the base field, canonical order."""
    carrier = base._carrier()
    size = len(carrier)
    one = base._one_data()
    for idx in range(size ** d):
        coeffs = []
        n = idx
        for _ in range(d):
            coeffs.append(carrier[n % size])
            n //= size
        yield tuple(coeffs) + (one,)


def _is_irreducible(base, f):
    df = len(f) - 1
    if df <= 1:
        return df == 1
    for d in range(1, df // 2 + 1):
        for g in _monic_polys(base, d):
            if not _pmod(base, f, g):
                return False
    return True


def default_irreducible(base: Zmod, k: int) -> tuple:
    """Canonical monic irreducible of degree k over GF(p): least in
    constant-coefficient-first enumeration order."""
    for g in _monic_polys(base, k):
        if _is_irreducible(base, g):
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
        self.modulus = modulus  # monic, data-level coefficient tuple
        self.var = var
        self.degree = len(modulus) - 1
        if self.degree < 1:
            raise RingSyntaxError("modulus must have degree at least 1")
        self.size = base.size ** self.degree
        if self.size > size_cap:
            raise TooLargeError(
                f"|R| = {base.size}^{self.degree} exceeds the size cap {size_cap}"
            )
        # a -> b -> a+b, a -> b -> a*b and a -> -a, filled on first use
        tabled = self.size <= TABLE_SIZE_BOUND
        self._add_table = self.cached("add_table", lambda: defaultdict(dict)) if tabled else None
        self._mul_table = self.cached("mul_table", lambda: defaultdict(dict)) if tabled else None
        self._neg_table = self.cached("neg_table", dict) if tabled else None

        g = _min_degree_factor(base, modulus)
        m, rem = 1, None
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
            # linear irreducible: residue field is the coefficient field,
            # reduction is evaluation at the root of g
            self._residue = base
            self._root = base._rneg(g[0])
        else:
            self._residue = PolyQuotient(base, g, var, size_cap=size_cap)

    # raw ops on trimmed coefficient tuples: from the arithmetic tables when
    # |R| <= TABLE_SIZE_BOUND, else computed directly
    def _radd(self, a, b):
        rows = self._add_table
        if rows is None:
            return _padd(self.base, a, b)
        try:
            return rows[a][b]
        except KeyError:
            value = rows[a][b] = _padd(self.base, a, b)
            return value

    def _rmul(self, a, b):
        rows = self._mul_table
        if rows is None:
            return _pmod(self.base, _pmul(self.base, a, b), self.modulus)
        try:
            return rows[a][b]
        except KeyError:
            value = rows[a][b] = _pmod(self.base, _pmul(self.base, a, b), self.modulus)
            return value

    def _rneg(self, a):
        table = self._neg_table
        if table is None:
            return _pneg(self.base, a)
        try:
            return table[a]
        except KeyError:
            value = table[a] = _pneg(self.base, a)
            return value

    def _rinv(self, a):
        """Inverse by the extended gcd with the modulus, memoized per unit."""
        inverses = self.cached("inverses", dict)
        try:
            return inverses[a]
        except KeyError:
            pass
        g, s, _ = _pxgcd(self.base, a, self.modulus)
        if len(g) != 1:
            raise NonUnitError(f"{self.format_element(a)} is not a unit of {self.spec}")
        c = self.base._rinv(g[0])
        inv = inverses[a] = _pmod(
            self.base, tuple(self.base._rmul(ci, c) for ci in s), self.modulus
        )
        return inv

    def _runit(self, a):
        if self.is_field:
            return bool(a)
        return bool(self._reduce_raw(a))

    def _rkey(self, a):
        # high-degree coefficient first, so the order matches the carrier
        # enumeration (constant coefficient cycles fastest)
        pad = self.degree - len(a)
        zk = self.base._rkey(self.base._zero_data())
        return (zk,) * pad + tuple(self.base._rkey(c) for c in reversed(a))

    def _rjson(self, a):
        return [self.base._rjson(c) for c in a]

    def _zero_data(self):
        return ()

    def _one_data(self):
        one = self.base._one_data()
        return (one,)

    def _from_int_data(self, n):
        d = self.base._from_int_data(n)
        return (d,) if d != self.base._zero_data() else ()

    def _carrier(self):
        def build():
            base_carrier = self.base._carrier()
            q = len(base_carrier)
            out = []
            for idx in range(self.size):
                coeffs = []
                n = idx
                for _ in range(self.degree):
                    coeffs.append(base_carrier[n % q])
                    n //= q
                out.append(_ptrim(self.base, coeffs))
            return tuple(out)

        return self.cached("carrier", build)

    def residue_field(self):
        return self._residue

    def _reduce_raw(self, a):
        if self.is_field:
            return a
        if self._residue is self.base:
            return _peval(self.base, a, self._root)
        return _pmod(self.base, a, self.irreducible)

    def _lift_raw(self, abar):
        if self.is_field:
            return abar
        if self._residue is self.base:
            return (abar,) if abar != self.base._zero_data() else ()
        return abar

    def element_from_json(self, obj) -> RingElement:
        if not isinstance(obj, list):
            raise RingError(f"expected a coefficient array for an element of {self.spec}, got {obj!r}")
        coeffs = tuple(self.base.element_from_json(c).data for c in obj)
        return self.element(_pmod(self.base, _ptrim(self.base, coeffs), self.modulus))

    def format_element(self, a):
        return format_poly(self.base, a, self.var)


def format_poly(base: LocalRing, coeffs, var: str) -> str:
    """Human-readable polynomial, ascending degree (paper style: 1+x+x^2)."""
    if not coeffs:
        return "0"
    terms = []
    one = base._one_data()
    zero = base._zero_data()
    for i, c in enumerate(coeffs):
        if c == zero:
            continue
        if i == 0:
            terms.append(base.format_element(c))
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c == one:
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

_parse_cache: dict = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _parse_field(token: str, size_cap: int) -> LocalRing:
    m = _GF_RE.match(token)
    if not m:
        raise RingSyntaxError(f"bad field spec {token!r}")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    if k == 1:
        pp = _prime_power(p)
        if pp is None or pp[1] != 1:
            if pp is not None:
                # allow GF(q) with q a prime power, e.g. GF(4)
                p, k = pp
            else:
                raise NotLocalError(f"GF({p}) requires a prime power")
    if not _is_prime(p):
        raise NotLocalError(f"GF({p}^{k}) requires a prime base")
    if p ** k > size_cap:
        raise TooLargeError(f"|GF({p}^{k})| exceeds the size cap {size_cap}")
    if k == 1:
        return Zmod(p, 1, display=f"GF({p})")
    prime = Zmod(p, 1, display=f"GF({p})")
    modulus = default_irreducible(prime, k)
    return PolyQuotient(prime, modulus, "a", display=f"GF({p ** k})", size_cap=size_cap)


class _PolyParser:
    """Recursive-descent parser for the POLY piece of the grammar."""

    def __init__(self, text: str, base: LocalRing, var: str, size_cap: int):
        self.toks = re.findall(r"\d+|[a-z]|\^|\*|\+|-|\(|\)", text)
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
            c = self.base._from_int_data(int(t))
            return (c,) if c != self.base._zero_data() else ()
        if t == self.var:
            poly = (self.base._zero_data(), self.base._one_data())
        elif t == "a":
            gen = self._generator()
            poly = (gen,) if gen != self.base._zero_data() else ()
        else:
            raise RingSyntaxError(f"unexpected token {t!r} in polynomial")
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise RingSyntaxError("exponent must be an integer")
            e = int(e)
            if t == self.var:
                self._check_degree(e)
                return (self.base._zero_data(),) * e + (self.base._one_data(),)
            return ((RingElement(self.base, poly[0]) ** e).data,)
        return poly

    def _generator(self):
        if isinstance(self.base, PolyQuotient) and self.base.var == "a":
            return (self.base.base._zero_data(), self.base.base._one_data())
        raise RingSyntaxError(f"'a' is undefined over {self.base.spec}")


def parse_ring(spec: str, size_cap: int = DEFAULT_SIZE_CAP) -> LocalRing:
    """Parse a ring spec string; the registry keeps one ring per (spec, cap)."""
    stripped = re.sub(r"\s+", "", spec)
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
        n = int(m.group(1))
        pp = _prime_power(n)
        if pp is None:
            raise NotLocalError(f"Z/{n} is not local (modulus is not a prime power)")
        if n > size_cap:
            raise TooLargeError(f"|Z/{n}| exceeds the size cap {size_cap}")
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
        if not base._runit(poly[-1]):
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
