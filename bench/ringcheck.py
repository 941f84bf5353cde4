"""The benchmark's own ring arithmetic: input generation and output checks
that do not depend on ``wittlab``.

A ring is given by a spec in a small part of the library's grammar:

    Z/N  |  GF(p)[v]/(POLY)  |  GF(4)[v]/(POLY)

with p prime and POLY a sum of terms ``c``, ``v``, ``v^k``, ``c*v`` or
``c*v^k`` in any order.  GF(4) is GF(2)[a]/(a^2+a+1), the only quadratic
field over F_2, so its elements have one coding whatever program wrote
them.  Fields such as GF(9) are given by their polynomial, e.g.
``GF(3)[x]/(x^2+1)``.

Elements are coded as indices into the carrier; the add and multiply tables
are built once from polynomial arithmetic over F_p.  A ring must be local:
units are the elements with an inverse, everything else is the maximal
ideal.  JSON values follow the library's format: an int for Z/N, and for a
quotient the coefficient list, constant first, with trailing zeros trimmed.
"""

from __future__ import annotations

import itertools
import re


class CheckError(Exception):
    """An output failed an independent check."""


# Random vectors of the current span tried for an anisotropic one before a
# random orthogonal basis starts over.
_PICKS = 200


# ---------------------------------------------------------------------------
# value-level rings: Z/N and monic polynomial quotients over them
# ---------------------------------------------------------------------------


class _Zn:
    def __init__(self, n: int):
        self.n = n
        self.zero, self.one = 0, 1

    def values(self):
        return range(self.n)

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def from_int(self, c):
        return c % self.n

    def to_json(self, a):
        return a

    def from_json(self, obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise CheckError(f"expected an integer element, got {obj!r}")
        return obj % self.n

    def key(self):
        return ("Z", self.n)


class _Quot:
    """base[v]/(f) for a monic f, elements as dense coefficient tuples."""

    def __init__(self, base, modulus):
        self.base = base
        self.mod = tuple(modulus)          # monic, constant first
        self.d = len(self.mod) - 1
        self.zero = (base.zero,) * self.d
        self.one = (base.one,) + (base.zero,) * (self.d - 1)

    def values(self):
        return itertools.product(tuple(self.base.values()), repeat=self.d)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def _reduce(self, coeffs):
        base, d = self.base, self.d
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c == base.zero:
                continue
            for i in range(d + 1):
                coeffs[k - d + i] = base.add(coeffs[k - d + i], base.neg(base.mul(c, self.mod[i])))
        coeffs = coeffs[:d] + [base.zero] * (d - len(coeffs))
        return tuple(coeffs)

    def mul(self, a, b):
        base = self.base
        out = [base.zero] * (2 * self.d - 1)
        for i, x in enumerate(a):
            if x == base.zero:
                continue
            for j, y in enumerate(b):
                out[i + j] = base.add(out[i + j], base.mul(x, y))
        return self._reduce(out)

    def from_int(self, c):
        return (self.base.from_int(c),) + (self.base.zero,) * (self.d - 1)

    def to_json(self, a):
        coeffs = list(a)
        while coeffs and coeffs[-1] == self.base.zero:
            coeffs.pop()
        return [self.base.to_json(c) for c in coeffs]

    def from_json(self, obj):
        if not isinstance(obj, list):
            raise CheckError(f"expected a coefficient list, got {obj!r}")
        return self._reduce([self.base.from_json(c) for c in obj])

    def key(self):
        return ("Q", self.base.key(), self.mod)


_GF4 = _Quot(_Zn(2), (1, 1, 1))

_ZMOD_RE = re.compile(r"^Z/(\d+)$")
_QUOT_RE = re.compile(r"^GF\((\d+)\)\[([a-z])\]/\((.+)\)$")
_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:([a-z])(?:\^(\d+))?)?$")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _parse_poly(text: str, var: str, base) -> tuple:
    coeffs: dict = {}
    for term in text.split("+"):
        m = _TERM_RE.match(term)
        if not term or not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad term {term!r} in {text!r}")
        if m.group(2) is not None and m.group(2) != var:
            raise ValueError(f"unknown variable in {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        k = 0 if m.group(2) is None else int(m.group(3) or 1)
        coeffs[k] = coeffs.get(k, 0) + c
    deg = max(coeffs)
    poly = [base.from_int(coeffs.get(k, 0)) for k in range(deg + 1)]
    if poly[-1] != base.one:
        raise ValueError(f"modulus {text!r} must be monic")
    return tuple(poly)


def _value_ring(spec: str):
    s = re.sub(r"\s+", "", spec)
    m = _ZMOD_RE.match(s)
    if m:
        return _Zn(int(m.group(1)))
    m = _QUOT_RE.match(s)
    if m:
        q = int(m.group(1))
        if q == 4:
            base = _GF4
        elif _is_prime(q):
            base = _Zn(q)
        else:
            raise ValueError(f"coefficient field GF({q}) has no fixed coding here")
        return _Quot(base, _parse_poly(m.group(3), m.group(2), base))
    raise ValueError(f"unsupported ring spec {spec!r}")


# ---------------------------------------------------------------------------
# index-coded finite local ring
# ---------------------------------------------------------------------------


class Ring:
    def __init__(self, spec: str):
        self.spec = spec
        vr = _value_ring(spec)
        self._vr = vr
        self.key = vr.key()
        self.values = list(vr.values())
        self.size = len(self.values)
        self.index = {v: i for i, v in enumerate(self.values)}
        idx = self.index
        self.add_t = [[idx[vr.add(a, b)] for b in self.values] for a in self.values]
        self.mul_t = [[idx[vr.mul(a, b)] for b in self.values] for a in self.values]
        self.neg_t = [idx[vr.neg(a)] for a in self.values]
        self.zero = idx[vr.zero]
        self.one = idx[vr.one]
        self.inv_t = {}
        for a in range(self.size):
            for b in range(self.size):
                if self.mul_t[a][b] == self.one:
                    self.inv_t[a] = b
                    break
        self.units = sorted(self.inv_t)
        nonunits = [a for a in range(self.size) if a not in self.inv_t]
        for a in nonunits:
            for b in nonunits:
                if self.add_t[a][b] in self.inv_t:
                    raise ValueError(f"{spec} is not local")
        self.residue_size = self.size // len(nonunits)
        self.squares = sorted({self.mul_t[u][u] for u in self.units})
        self.square_classes = len(self.units) // len(self.squares)

    # -- elements -----------------------------------------------------------

    def is_unit(self, a) -> bool:
        return a in self.inv_t

    def square_class(self, u):
        """The least element of u R*^2, one name per square class of units."""
        return min(self.mul_t[u][s] for s in self.squares)

    def to_json(self, a):
        return self._vr.to_json(self.values[a])

    def from_json(self, obj):
        return self.index[self._vr.from_json(obj)]

    def vec_to_json(self, v):
        return [self.to_json(c) for c in v]

    def vec_from_json(self, obj):
        if not isinstance(obj, list):
            raise CheckError(f"expected a vector, got {obj!r}")
        return tuple(self.from_json(c) for c in obj)

    def mat_to_json(self, A):
        return [self.vec_to_json(row) for row in A]

    def mat_from_json(self, obj):
        if not isinstance(obj, list):
            raise CheckError(f"expected a matrix, got {obj!r}")
        return tuple(self.vec_from_json(row) for row in obj)

    # -- linear algebra -------------------------------------------------------

    def dot(self, x, y):
        add, mul = self.add_t, self.mul_t
        acc = self.zero
        for a, b in zip(x, y):
            acc = add[acc][mul[a][b]]
        return acc

    def bilinear(self, gram, x, y):
        return self.dot(x, tuple(self.dot(row, y) for row in gram))

    def det(self, A):
        """Leibniz expansion: exact over any commutative ring."""
        n = len(A)
        add, mul = self.add_t, self.mul_t
        total = self.zero
        for perm in itertools.permutations(range(n)):
            term = self.one
            for i, j in enumerate(perm):
                term = mul[term][A[i][j]]
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            if inversions % 2:
                term = self.neg_t[term]
            total = add[total][term]
        return total

    def transpose(self, A):
        return tuple(zip(*A))

    def mat_mul(self, A, B):
        Bt = self.transpose(B)
        return tuple(tuple(self.dot(row, col) for col in Bt) for row in A)

    def congruent(self, M, A):
        """M^T A M."""
        return self.mat_mul(self.transpose(M), self.mat_mul(A, M))

    def orthogonal_sum(self, A, B):
        n, m = len(A), len(B)
        z = self.zero
        rows = [tuple(A[i]) + (z,) * m for i in range(n)]
        rows += [(z,) * n + tuple(B[i]) for i in range(m)]
        return tuple(rows)

    # -- random inputs ----------------------------------------------------------

    def random_unit(self, rng):
        return self.units[rng.randrange(len(self.units))]

    def random_diagonal_gram(self, n, rng):
        d = [self.random_unit(rng) for _ in range(n)]
        return tuple(tuple(d[i] if i == j else self.zero for j in range(n)) for i in range(n))

    def random_symmetric_gram(self, n, rng):
        """Uniform symmetric matrix with unit determinant (rejection)."""
        while True:
            A = [[self.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    A[i][j] = A[j][i] = rng.randrange(self.size)
            A = tuple(tuple(r) for r in A)
            if self.is_unit(self.det(A)):
                return A

    def random_invertible(self, n, rng):
        while True:
            M = tuple(tuple(rng.randrange(self.size) for _ in range(n)) for _ in range(n))
            if self.is_unit(self.det(M)):
                return M

    def random_orthogonal_basis(self, gram, rng):
        """Pick a random anisotropic v in the current span, keep the span
        vectors other than one with a unit coefficient in v, and project
        them onto v's orthogonal complement.  Restart on a dead end (a span
        on which q takes no unit value, which happens in residue
        characteristic 2)."""
        n = len(gram)
        add, mul, neg = self.add_t, self.mul_t, self.neg_t
        while True:
            span = [tuple(self.one if i == j else self.zero for j in range(n)) for i in range(n)]
            chosen = []
            while span:
                pick = None
                for _ in range(_PICKS):
                    coeffs = [rng.randrange(self.size) for _ in span]
                    v = [self.zero] * n
                    for c, w in zip(coeffs, span):
                        v = [add[a][mul[c][b]] for a, b in zip(v, w)]
                    v = tuple(v)
                    q = self.bilinear(gram, v, v)
                    if self.is_unit(q):
                        pick = (v, q, coeffs)
                        break
                if pick is None:
                    break
                v, q, coeffs = pick
                j = next(i for i, c in enumerate(coeffs) if self.is_unit(c))
                qinv = self.inv_t[q]
                rest = []
                for i, w in enumerate(span):
                    if i == j:
                        continue
                    f = neg[mul[self.bilinear(gram, w, v)][qinv]]
                    rest.append(tuple(add[a][mul[f][b]] for a, b in zip(w, v)))
                chosen.append(v)
                span = rest
            if len(chosen) == n:
                return tuple(chosen)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_orthogonal_basis(ring: Ring, gram, vectors, label="basis"):
    n = len(gram)
    if len(vectors) != n or any(len(v) != n for v in vectors):
        raise CheckError(f"{label}: expected {n} vectors of length {n}")
    for i, v in enumerate(vectors):
        if not ring.is_unit(ring.bilinear(gram, v, v)):
            raise CheckError(f"{label}: vector {i} is not anisotropic")
        for j in range(i + 1, n):
            if ring.bilinear(gram, v, vectors[j]) != ring.zero:
                raise CheckError(f"{label}: vectors {i} and {j} are not orthogonal")
    if not ring.is_unit(ring.det(ring.transpose(vectors))):
        raise CheckError(f"{label}: determinant does not reduce to a unit")


def check_chain_certificate(ring: Ring, gram, start, end, cert):
    """Recompute every condition of a chain certificate from its JSON:
    the ring and Gram matrix it claims, that each entry is an orthogonal
    basis of anisotropic vectors with unit determinant, that consecutive
    entries share at least n-2 vectors, and both endpoints (as sets)."""
    if not isinstance(cert, dict) or not isinstance(cert.get("bases"), list):
        raise CheckError("certificate has no list of bases")
    try:
        claimed = Ring(cert.get("ring", ""))
    except ValueError as exc:
        raise CheckError(f"certificate ring: {exc}") from None
    if claimed.key != ring.key:
        raise CheckError(f"certificate ring {cert.get('ring')!r} is not {ring.spec}")
    if ring.mat_from_json(cert.get("gram")) != tuple(tuple(r) for r in gram):
        raise CheckError("certificate Gram matrix differs from the input")
    bases = [ring.mat_from_json(b) for b in cert["bases"]]
    if not bases:
        raise CheckError("certificate has no bases")
    n = len(gram)
    for k, basis in enumerate(bases):
        check_orthogonal_basis(ring, gram, basis, f"basis {k}")
    for k in range(len(bases) - 1):
        shared = len(set(bases[k]) & set(bases[k + 1]))
        if shared < n - 2:
            raise CheckError(f"step {k} -> {k + 1} shares {shared} < {n - 2} vectors")
    if set(bases[0]) != set(start):
        raise CheckError("chain does not start at the requested basis")
    if set(bases[-1]) != set(end):
        raise CheckError("chain does not end at the requested basis")


def _order(factors):
    out = 1
    for d in factors:
        out *= d
    return out


def _check_structure(ring: Ring, s, label):
    factors = s.get("invariant_factors")
    if not isinstance(factors, list) or any(not isinstance(d, int) or d < 2 for d in factors):
        raise CheckError(f"{label}: bad invariant factors {factors!r}")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise CheckError(f"{label}: invariant factors {factors} do not divide in turn")
    images = s.get("generator_images")
    if images is not None and len(images) != len(ring.units):
        raise CheckError(f"{label}: {len(images)} generator images for {len(ring.units)} units")
    return s.get("free_rank"), factors


# Known answers from the literature for rings whose residue field is F_2
# (odd residue characteristic is covered by the general rules below).
KNOWN = {
    ("Q", ("Z", 2), (0, 0, 0, 0, 1)): {   # GF(2)[x]/(x^4), as in the paper
        "gw": [2, 2], "kmw": [2, 2, 2], "kernel": [2],
    },
}


def check_group_output(ring: Ring, cmd: str, out: dict):
    """Known answers and properties of one ``gw``/``kmw``/``witt``/``compare``
    result, from facts about GW, K0^MW and W of a finite local ring."""
    if out.get("command") != cmd:
        raise CheckError(f"output is for {out.get('command')!r}, not {cmd!r}")
    q = ring.residue_size
    odd = q % 2 == 1
    known = KNOWN.get(ring.key, {})
    if cmd in ("gw", "kmw"):
        rank, factors = _check_structure(ring, out, cmd)
        if rank != 1:
            raise CheckError(f"{cmd}: free rank {rank}, expected 1")
        if _order(factors) < ring.square_classes:
            raise CheckError(
                f"{cmd}: torsion order {_order(factors)} below the "
                f"{ring.square_classes} square classes"
            )
        if odd and factors != [2]:
            raise CheckError(f"{cmd}: {factors} for odd residue characteristic, expected [2]")
        if cmd in known and factors != known[cmd]:
            raise CheckError(f"{cmd}: {factors}, expected {known[cmd]}")
    elif cmd == "witt":
        rank, factors = _check_structure(ring, out, cmd)
        if rank != 0:
            raise CheckError(f"witt: free rank {rank}, expected 0")
        if odd:
            want = [2, 2] if q % 4 == 1 else [4]
            if factors != want:
                raise CheckError(f"witt: {factors} for q = {q}, expected {want}")
    elif cmd == "compare":
        kern = out.get("kernel", {})
        kmw_rank, kmw_f = _check_structure(ring, out.get("kmw", {}), "compare.kmw")
        gw_rank, gw_f = _check_structure(ring, out.get("gw", {}), "compare.gw")
        if kmw_rank != 1 or gw_rank != 1:
            raise CheckError("compare: free ranks of K0^MW and GW must be 1")
        if kern.get("free_rank") != 0:
            raise CheckError("compare: kernel has a free part")
        k_f = kern.get("invariant_factors", [])
        if _order(kmw_f) != _order(gw_f) * _order(k_f):
            raise CheckError(
                f"compare: |K0^MW tors| {_order(kmw_f)} != |GW tors| {_order(gw_f)} * |kernel| {_order(k_f)}"
            )
        if out.get("is_isomorphism") != (not k_f):
            raise CheckError("compare: is_isomorphism disagrees with the kernel")
        if q != 2 and k_f:
            raise CheckError(f"compare: kernel {k_f} for residue field of size {q} != 2")
        if "kernel" in known and k_f != known["kernel"]:
            raise CheckError(f"compare: kernel {k_f}, expected {known['kernel']}")
    else:
        raise CheckError(f"unknown command {cmd!r}")


def odd_gw_class_clashes(ring: Ring, forms):
    """Positions of the forms whose GW class breaks the classification by
    rank and discriminant.

    When 2 is a unit, GW(R) = GW(residue field) = Z + Z/2 and the class of
    a nondegenerate form is fixed by its rank n and the square class of its
    determinant.  ``forms`` lists (n, det, class) with the determinant in
    the benchmark's coding and the class as the library gave it.  Forms with
    the same (n, disc) must get the same class, and forms with different
    (n, disc) different classes."""
    if ring.residue_size % 2 == 0:
        raise ValueError(f"{ring.spec} has residue characteristic 2")
    keys = [(n, ring.square_class(det)) for n, det, _ in forms]
    classes = [tuple(cls) for _, _, cls in forms]
    by_key: dict = {}
    by_class: dict = {}
    for key, cls in zip(keys, classes):
        by_key.setdefault(key, set()).add(cls)
        by_class.setdefault(cls, set()).add(key)
    return [
        k for k, (key, cls) in enumerate(zip(keys, classes))
        if len(by_key[key]) > 1 or len(by_class[cls]) > 1
    ]


def check_group_round(ring: Ring, outs: dict):
    """Consistency between the commands of one ring: compare embeds the
    standalone K0^MW and GW, and |W| = 2 |GW tors| since W = GW / (h)
    and h has rank 2."""
    def shape(s):
        return (s.get("free_rank"), s.get("invariant_factors"))
    if "compare" in outs:
        for cmd in ("gw", "kmw"):
            if cmd in outs and shape(outs[cmd]) != shape(outs["compare"][cmd]):
                raise CheckError(f"compare.{cmd} differs from the {cmd} command")
    if "witt" in outs and "gw" in outs:
        if _order(outs["witt"]["invariant_factors"]) != 2 * _order(outs["gw"]["invariant_factors"]):
            raise CheckError("|W| != 2 |GW torsion|")
