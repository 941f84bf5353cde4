import itertools
import time

import pytest

from wittlab import (
    BilinearSpace,
    CongruenceWitness,
    DegenerateSubspaceError,
    DimensionMismatchError,
    OrthogonalBasis,
    RingError,
    check_representation_identity,
    diagonalize,
    gw_class,
    gw_structure,
    hyperbolic_scaling_witness,
    is_isometric,
    orthogonal_complement,
    parse_ring,
    resolve_block,
    stable_diagonalize,
    steinberg_witness,
)
from wittlab import bilinear
from wittlab.bilinear import BilinearError, NotInMaximalIdealError
from wittlab import matrices as mx
from wittlab import certify
from wittlab.bilinear import _data
from wittlab.certify import check_congruence

import elimination_reference as reference
from conftest import MATRIX_SPECS, seeded, vec_combo


def ident(ring, n):
    return BilinearSpace.diagonal(ring, (ring.one,) * n)


def test_eval_examples():
    F3 = parse_ring("GF(3)")
    S = ident(F3, 3)
    e = S.standard_basis()
    assert S.eval_b(e[0], e[1]).is_zero()
    assert S.eval_q(e[0]) == F3.one

    F2 = parse_ring("GF(2)")
    S4 = ident(F2, 4)
    allones = (F2.one,) * 4
    assert S4.eval_q(allones).is_zero()

    Z4 = parse_ring("Z/4")
    H = BilinearSpace.hyperbolic(Z4)
    assert H.eval_q((Z4.one, Z4.one)) == Z4.from_int(2)

    with pytest.raises(DimensionMismatchError):
        S.eval_b(e[0], (F3.one,))


def test_orthogonal_complement_examples():
    F3 = parse_ring("GF(3)")
    S = ident(F3, 3)
    e = S.standard_basis()
    comp = orthogonal_complement(S, [e[0]])
    assert len(comp) == 2
    for v in comp:
        assert S.eval_b(v, e[0]).is_zero()

    # F2, <1,1,1>: complement of (1,1,1) is totally isotropic
    F2 = parse_ring("GF(2)")
    S2 = ident(F2, 3)
    w = (F2.one, F2.one, F2.one)
    comp = orthogonal_complement(S2, [w])
    assert len(comp) == 2
    for c1 in F2.elements():
        for c2 in F2.elements():
            v = vec_combo(comp, (c1, c2))
            assert S2.eval_q(v).is_zero()

    # F5, <1,1>, W = {(1,2)}: null space is the line through (2,-1)
    F5 = parse_ring("GF(5)")
    S5 = ident(F5, 2)
    w = (F5.one, F5.from_int(2))
    comp = orthogonal_complement(S5, [w])
    assert len(comp) == 1
    assert S5.eval_b(comp[0], w).is_zero()
    target = (F5.from_int(2), F5.minus_one)
    assert any(vec_combo((comp[0],), (u,)) == target for u in F5.units())

    # no unit pivot available: rejected over Z/4
    Z4 = parse_ring("Z/4")
    SZ = ident(Z4, 2)
    with pytest.raises(DegenerateSubspaceError):
        orthogonal_complement(SZ, [(Z4.from_int(2), Z4.zero)])


def test_diagonalize_already_diagonal():
    Z9 = parse_ring("Z/9")
    S = BilinearSpace.diagonal(Z9, (Z9.from_int(2), Z9.from_int(5)))
    report, witness = diagonalize(S)
    assert report.l == 2 and report.r == 0
    assert witness.matrix == mx.mat_identity(Z9, 2)


def test_diagonalize_hyperbolic_block():
    R = parse_ring("GF(2)[x]/(x^4)")
    H = BilinearSpace.hyperbolic(R)
    report, witness = diagonalize(H)
    assert report.l == 0 and report.r == 1
    a, b = report.blocks[0]
    assert a.is_zero() and b.is_zero()


def test_diagonalize_f3_example():
    F3 = parse_ring("GF(3)")
    S = BilinearSpace(F3, ((F3.from_int(2), F3.one), (F3.one, F3.one)))
    report, witness = diagonalize(S)
    assert report.r == 0
    sc = F3.square_classes()
    got = sorted(sc.class_index[u.data] for u in report.units)
    assert got == [sc.class_index[F3.from_int(2).data]] * 2


def test_diagonalize_reassembly_and_random(rng):
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)", "GF(5)"]:
        ring = parse_ring(spec)
        for n in (1, 2, 3):
            for _ in range(10):
                S = _random_space(ring, n, rng)
                if S is None:
                    continue
                report, witness = diagonalize(S)
                assert report.l + 2 * report.r == n
                for a, b in report.blocks:
                    assert not a.is_unit() and not b.is_unit()
                ok, msg = witness.check()
                assert ok, msg


def _random_space(ring, n, rng, tries=50, diagonal=None):
    """A random space; with `diagonal`, its diagonal entries are drawn from it."""
    for _ in range(tries):
        entries = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if diagonal:
                entries[i][i] = rng.choice(diagonal)
            for j in range(i):
                entries[i][j] = entries[j][i]
        try:
            return BilinearSpace(ring, tuple(tuple(r) for r in entries))
        except Exception:
            continue
    return None


def _scan_find_anisotropic(space, basis):
    """Reference for bilinear._anisotropic_pivot: a vector of `basis` with
    unit q-value, else the first such combination in a scan of every
    coefficient tuple over the carrier (none in residue characteristic 2)."""
    for v in basis:
        if space.eval_q(v).is_unit():
            return v
    if space.ring.residue_field().size % 2 == 0:
        return None
    elems = tuple(space.ring.elements())
    for coeffs in itertools.product(elems, repeat=len(basis)):
        v = vec_combo(basis, coeffs)
        if space.eval_q(v).is_unit():
            return v
    return None


def test_find_anisotropic_matches_carrier_scan(monkeypatch):
    """The pivot that _anisotropic_pivot picks on the tracked Gram matrix G
    is the first hit of the carrier scan on BilinearSpace(ring, G), on every
    step that diagonalize and stable_diagonalize make over rings with odd
    and even residue characteristic."""
    pivot = bilinear._anisotropic_pivot
    past_basis = []

    def checked(ring, G):
        got = pivot(ring, G)
        space = BilinearSpace(ring, [[ring.elems[d] for d in row] for row in G])
        basis = space.standard_basis()
        want = _scan_find_anisotropic(space, basis)
        if got is None:
            assert want is None
        else:
            assert vec_combo(basis, [ring.one if i in got else ring.zero
                                     for i in range(len(G))]) == want
        if not any(space.eval_q(v).is_unit() for v in basis):
            past_basis.append(got)
        return got

    monkeypatch.setattr(bilinear, "_anisotropic_pivot", checked)
    rng = seeded(13)
    for spec in ["GF(3)", "GF(5)", "GF(9)", "Z/9", "Z/25", "GF(3)[x]/(x^2)", "Z/4",
                 "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        # diagonal entries in the maximal ideal make every standard vector
        # fail, so diagonalize looks past the basis vectors
        ideal = [x for x in ring.elements() if not x.is_unit()]
        for n in (2, 3, 4):
            for diagonal in (ideal, None):
                for _ in range(6 if n < 4 or ring.size < 10 else 2):
                    S = _random_space(ring, n, rng, diagonal=diagonal)
                    if S is not None:
                        diagonalize(S)
                        stable_diagonalize(S)
    assert sum(v is not None for v in past_basis) >= 200


def _unchecked_space(ring, gram, monkeypatch):
    """BilinearSpace(ring, gram), with the unit-determinant check skipped
    when det(gram) is not a unit."""
    if mx.mat_det(ring, gram).is_unit():
        return BilinearSpace(ring, gram)
    with monkeypatch.context() as m:
        m.setattr(mx, "mat_det", lambda ring, A: ring.one)
        return BilinearSpace(ring, gram)


def test_in_place_elimination_matches_recursive_core(rings, monkeypatch):
    """bilinear._diagonalize gives the (units, blocks, unit_cols,
    block_cols) of the recursive core in tests/elimination_reference.py,
    and the same exception on degenerate Grams, on random symmetric
    matrices over every ring at n = 1..7; in every third draw the whole
    diagonal comes from the maximal ideal, which sends the elimination to
    pair pivots (odd residue characteristic) and blocks (even)."""
    pivot = bilinear._anisotropic_pivot
    seen = {"blocks": 0, "pair_pivots": 0, "degenerate": 0, "spaces": 0}

    def counted(ring, G):
        got = pivot(ring, G)
        seen["pair_pivots"] += got is not None and len(got) == 2
        return got

    monkeypatch.setattr(bilinear, "_anisotropic_pivot", counted)

    def outcome(core, space):
        try:
            return core(space)
        except Exception as exc:
            return type(exc), str(exc)

    rng = seeded(30)
    for spec, ring in rings.items():
        ideal = ring.maximal_ideal()
        for n in range(1, 8):
            for k in range(30):
                rows = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    if k % 3 == 0:
                        rows[i][i] = rng.choice(ideal)
                    for j in range(i):
                        rows[i][j] = rows[j][i]
                S = _unchecked_space(ring, rows, monkeypatch)
                want = outcome(reference.diagonalize_core, S)
                assert outcome(bilinear._diagonalize, S) == want, (spec, rows)
                if isinstance(want[0], type):
                    assert want[0] is bilinear.DegenerateError, (spec, rows, want)
                    seen["degenerate"] += 1
                else:
                    seen["spaces"] += 1
                    seen["blocks"] += len(want[1])
    assert seen["spaces"] >= 1500 and seen["degenerate"] >= 1000, seen
    assert seen["blocks"] >= 300 and seen["pair_pivots"] >= 400, seen


def test_diagonalization_never_evaluates_b_on_ambient_vectors(monkeypatch):
    """diagonalize, stable_diagonalize and gw_class run on the tracked Gram
    matrix alone: with bilinear._b and bilinear._complement_within patched
    to raise, they still answer over every MATRIX_SPECS ring."""
    rng = seeded(31)
    cases = []
    for spec in MATRIX_SPECS:
        ring = parse_ring(spec)
        ideal = list(ring.maximal_ideal())
        spaces = [S for n in (2, 3, 4, 5) for diagonal in (ideal, None)
                  if (S := _random_space(ring, n, rng, diagonal=diagonal)) is not None]
        cases.append((gw_structure(ring), spaces))

    def disabled(*args):
        raise AssertionError("the diagonalization evaluated b on ambient vectors")

    monkeypatch.setattr(bilinear, "_b", disabled)
    monkeypatch.setattr(bilinear, "_complement_within", disabled)
    ran = 0
    for structure, spaces in cases:
        for S in spaces:
            report, _ = diagonalize(S)
            assert stable_diagonalize(S)[1] == report.r
            gw_class(S, structure)
            ran += 1
    assert ran >= 70


def test_diagonalize_hyperbolic_rank_8_is_fast():
    """H+H+H+H as [[0, I], [I, 0]] over Z/27: every standard vector is
    isotropic, so a carrier scan passes 27^4 coefficient tuples before it
    reaches e_4 + e_8, the first vector that diagonalize splits off."""
    ring = parse_ring("Z/27")
    n = 8
    gram = tuple(tuple(ring.one if abs(i - j) == n // 2 else ring.zero for j in range(n))
                 for i in range(n))
    start = time.monotonic()
    report, witness = diagonalize(BilinearSpace(ring, gram))
    assert time.monotonic() - start < 1.0
    assert report.l == n and report.r == 0
    assert witness.check()[0]


def test_zero_dimensional_space():
    F3 = parse_ring("GF(3)")
    S = BilinearSpace(F3, ())
    report, witness = diagonalize(S)
    assert report.l == 0 and report.r == 0
    units, r, w = stable_diagonalize(S)
    assert units == () and r == 0


def test_resolve_block_examples():
    F5 = parse_ring("GF(5)")
    units, witness = resolve_block(F5, F5.zero, F5.zero)
    assert units == (F5.one, F5.minus_one, F5.minus_one)

    Z9 = parse_ring("Z/9")
    units, witness = resolve_block(Z9, Z9.from_int(3), Z9.from_int(3))
    assert units == (Z9.from_int(7), Z9.from_int(2), Z9.from_int(2))

    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    units, witness = resolve_block(R, x, x * x)
    one = R.one
    expected0 = (one - x ** 3) * (one + x).inv() * (one + x * x).inv()
    assert units == (expected0, one + x, one + x * x)

    with pytest.raises(NotInMaximalIdealError):
        resolve_block(Z9, Z9.one, Z9.zero)


def test_stable_diagonalize_examples():
    F5 = parse_ring("GF(5)")
    S = BilinearSpace.diagonal(F5, (F5.one, F5.one))
    units, r, witness = stable_diagonalize(S)
    assert units == (F5.one, F5.one) and r == 0

    R = parse_ring("GF(2)[x]/(x^4)")
    H = BilinearSpace.hyperbolic(R)
    units, r, witness = stable_diagonalize(H)
    assert r == 1 and len(units) == 3
    assert units == (R.one, R.minus_one, R.minus_one)

    x = R.element_from_json([0, 1])
    N = BilinearSpace(R, ((x, R.one), (R.one, x)))
    S4 = H.orthogonal_sum(N)
    units, r, witness = stable_diagonalize(S4)
    assert r == 2 and len(units) == 6


def test_is_isometric_examples():
    Z9 = parse_ring("Z/9")
    a = Z9.from_int(2)
    S1 = BilinearSpace.diagonal(Z9, (Z9.one,))
    S2 = BilinearSpace.diagonal(Z9, (a * a,))
    res = is_isometric(S1, S2)
    assert res.status == "isometric"

    F3 = parse_ring("GF(3)")
    res = is_isometric(
        BilinearSpace.diagonal(F3, (F3.one, F3.one)),
        BilinearSpace.diagonal(F3, (F3.one, F3.from_int(2))),
    )
    assert res.status == "not_isometric"

    # the explicit rank-2 isometry behind the counterexample computation
    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    one = R.one
    S1 = BilinearSpace.diagonal(R, (one, one + x))
    S2 = BilinearSpace.diagonal(R, (one + x + x * x, R.element_from_json([1, 0, 1, 1])))
    res = is_isometric(S1, S2)
    assert res.status == "isometric"
    # the stated matrix is itself a valid witness
    s = x + x * x + x ** 3
    CongruenceWitness(R, S1.gram, S2.gram, ((x, one), (one, s)))


def test_is_isometric_reflexive_symmetric(rng):
    for spec in ["GF(3)", "Z/9", "GF(2)[x]/(x^4)"]:
        ring = parse_ring(spec)
        S = BilinearSpace.diagonal(ring, (ring.random_unit(rng), ring.random_unit(rng)))
        res = is_isometric(S, S)
        assert res.status == "isometric"
        inv = res.witness.inverse()
        ok, msg = inv.check()
        assert ok, msg


def test_is_isometric_agrees_with_bruteforce(rng):
    for spec in ["GF(3)", "Z/4", "GF(4)"]:
        ring = parse_ring(spec)
        units = ring.units()
        elems = tuple(ring.elements())
        for _ in range(6):
            d1 = (ring.random_unit(rng), ring.random_unit(rng))
            d2 = (ring.random_unit(rng), ring.random_unit(rng))
            S1 = BilinearSpace.diagonal(ring, d1)
            S2 = BilinearSpace.diagonal(ring, d2)
            res = is_isometric(S1, S2)
            brute = False
            for m in itertools.product(elems, repeat=4):
                M = ((m[0], m[1]), (m[2], m[3]))
                if not mx.mat_det(ring, M).is_unit():
                    continue
                if mx.congruent(M, S2.gram) == S1.gram:
                    brute = True
                    break
            assert (res.status == "isometric") == brute


def test_witness_verification_rejects_wrong_target():
    F3 = parse_ring("GF(3)")
    S = BilinearSpace.diagonal(F3, (F3.one, F3.one))
    T = BilinearSpace.diagonal(F3, (F3.one, F3.from_int(2)))
    with pytest.raises(Exception):
        CongruenceWitness(F3, S.gram, T.gram, mx.mat_identity(F3, 2))


def test_witness_rejects_matrices_of_mismatched_shape():
    """A 1x2 matrix would satisfy M^T <1> M = [[1,0],[0,0]] entry by entry;
    a 2x1 matrix cannot even be multiplied.  Both are rejected by shape,
    before any arithmetic."""
    F3 = parse_ring("GF(3)")
    one, z = F3.one, F3.zero
    shape = "square matrices of one size"
    with pytest.raises(BilinearError, match=shape):
        CongruenceWitness(F3, ((one,),), ((one, z), (z, z)), ((one, z),))
    with pytest.raises(BilinearError, match=shape):
        CongruenceWitness(F3, ((one,),), ((one,),), ((one,), (z,)))


@pytest.fixture()
def check_calls(monkeypatch):
    """The number of CongruenceWitness.check calls made so far."""
    calls = []
    check = CongruenceWitness.check

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(CongruenceWitness, "check", counted)
    return calls


def test_each_public_call_checks_one_witness(check_calls):
    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    structure = gw_structure(R)
    # two residual blocks, so the composed witness replaces 2 + 2 checks
    S = BilinearSpace.hyperbolic(R).orthogonal_sum(
        BilinearSpace(R, ((x, R.one), (R.one, x)))
    )
    Z9 = parse_ring("Z/9")
    iso = (BilinearSpace.diagonal(Z9, (Z9.one,)), BilinearSpace.diagonal(Z9, (Z9.from_int(4),)))
    calls = {
        "diagonalize": lambda: diagonalize(S),
        "resolve_block": lambda: resolve_block(R, x, x * x),
        "stable_diagonalize": lambda: stable_diagonalize(S),
        "gw_class": lambda: gw_class(S, structure),
        "is_isometric": lambda: is_isometric(*iso),
    }
    for name, call in calls.items():
        del check_calls[:]
        call()
        assert len(check_calls) == 1, name


def _reference_stable_diagonalize(space):
    """The former composition W1·P·W3: the diagonalization witness plus the
    identity on r padding lines, a permutation that puts one padding line
    after each block, and the direct sum of the identity on the unit lines
    with each block's resolve matrix."""
    ring = space.ring
    report, witness = diagonalize(space)
    n, l, r = space.n, report.l, report.r
    size = n + r
    z, one = ring.zero, ring.one
    W1 = tuple(
        tuple(witness.matrix[i][j] if i < n and j < n else (one if i == j else z)
              for j in range(size))
        for i in range(size)
    )
    perm = list(range(l))
    for k in range(r):
        perm.extend([l + 2 * k, l + 2 * k + 1, n + k])
    P = tuple(tuple(one if perm[j] == i else z for j in range(size)) for i in range(size))
    units = list(report.units)
    W3 = [[one if i == j else z for j in range(size)] for i in range(size)]
    for k, (a, b) in enumerate(report.blocks):
        block_units, bw = resolve_block(ring, a, b)
        units.extend(block_units)
        off = l + 3 * k
        for i in range(3):
            W3[off + i][off:off + 3] = bw.matrix[i]
    total = mx.mat_mul(mx.mat_mul(W1, P), tuple(tuple(row) for row in W3))
    return tuple(units), r, total


def test_stable_diagonalize_matches_reference_composition():
    rng = seeded(9)
    blocks_seen = 0
    for spec in ["Z/9", "Z/4", "GF(5)", "GF(4)[y]/(y^2)", "GF(2)[x]/(x^4)"]:
        ring = parse_ring(spec)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                S = _random_space(ring, n, rng)
                if S is None:
                    continue
                units, r, witness = stable_diagonalize(S)
                assert (units, r, witness.matrix) == _reference_stable_diagonalize(S), spec
                blocks_seen += r
    assert blocks_seen >= 10


def test_steinberg_witness_examples():
    F5 = parse_ring("GF(5)")
    w = steinberg_witness(F5, F5.from_int(2))
    assert w.source == BilinearSpace.diagonal(F5, (F5.from_int(2), F5.from_int(4))).gram
    assert w.target == BilinearSpace.diagonal(F5, (F5.one, F5.from_int(3))).gram

    F4 = parse_ring("GF(4)")
    alpha = F4.element_from_json([0, 1])
    w = steinberg_witness(F4, alpha)
    assert w.target == BilinearSpace.diagonal(F4, (F4.one, F4.one)).gram


def test_hyperbolic_scaling_witness():
    Z9 = parse_ring("Z/9")
    w = hyperbolic_scaling_witness(Z9, Z9.one)
    assert w.source == w.target
    R = parse_ring("GF(2)[x]/(x^4)")
    hyperbolic_scaling_witness(R, R.one + R.element_from_json([0, 1]))


def test_representation_identity_trivial():
    F3 = parse_ring("GF(3)")
    one, zero = F3.one, F3.zero
    res = check_representation_identity(one, one, one, one, one, zero, one, zero, one)
    assert res.ok


def test_representation_identity_diagnostics():
    F5 = parse_ring("GF(5)")
    one = F5.one
    res = check_representation_identity(one, one, F5.from_int(3), one, one, one, one, one, one)
    assert not res.ok
    assert "c !=" in res.reason


def test_representation_identity_sampled(rng):
    for spec in ["GF(5)", "Z/27"]:
        ring = parse_ring(spec)
        done = 0
        while done < 200:
            a, b = ring.random_unit(rng), ring.random_unit(rng)
            x, y = ring.random_element(rng), ring.random_element(rng)
            c = a * x * x + b * y * y
            if not c.is_unit():
                continue
            d = a * b * c
            s, t = ring.random_element(rng), ring.random_element(rng)
            f = a * s * s + b * t * t
            assert check_representation_identity(a, b, c, d, x, y, s, t, f).ok
            done += 1


def test_gram_json_round_trip():
    R = parse_ring("GF(4)[y]/(y^2)")
    S = BilinearSpace.diagonal(R, (R.one, R.units()[5]))
    assert BilinearSpace.from_json(R, S.to_json()) == S


def test_entries_from_another_ring_are_rejected():
    # GF(9) = GF(3)[x]/(x^2+1) and GF(3)[x]/(x^2) code elements alike, as
    # coefficient pairs mod 3, so arithmetic on element data would not notice
    F9, Q = parse_ring("GF(9)"), parse_ring("GF(3)[x]/(x^2)")
    S = BilinearSpace.diagonal(F9, (F9.one, F9.one))
    foreign = tuple(tuple(Q.element(c.data) for c in v) for v in S.standard_basis())
    with pytest.raises(RingError, match="cannot be mixed"):
        OrthogonalBasis(S, foreign)
    with pytest.raises(RingError, match="cannot be mixed"):
        BilinearSpace(F9, ((F9.one, F9.zero), (F9.zero, Q.one)))
    with pytest.raises(RingError, match="cannot be mixed"):
        CongruenceWitness(F9, S.gram, S.gram, foreign)


def test_reduce_builds_the_residue_space_once():
    rng = seeded(4)
    for spec in ["Z/9", "GF(4)[y]/(y^2)", "GF(2)[x]/(x^4)", "GF(5)"]:
        R = parse_ring(spec)
        S = _random_space(R, 3, rng)
        F = R.residue_field()
        fresh = BilinearSpace(F, tuple(tuple(R.reduce(e) for e in row) for row in S.gram))
        assert S.reduce() is S.reduce()
        assert S.reduce() == fresh and S.reduce().ring is F


# ---------------------------------------------------------------------------
# mutants of the witnesses the library builds
# ---------------------------------------------------------------------------


def _ref_congruent(M, A):
    """M^T A M entry by entry, on element arithmetic."""
    n = len(M)
    zero = M[0][0].ring.zero
    return tuple(
        tuple(sum((M[k][i] * A[k][l] * M[l][j] for k in range(n) for l in range(n)), zero)
              for j in range(n))
        for i in range(n)
    )


def _ref_det(ring, M):
    """Cofactor expansion along the first row."""
    if not M:
        return ring.one
    total = ring.zero
    for j, a in enumerate(M[0]):
        term = a * _ref_det(ring, [row[:j] + row[j + 1:] for row in M[1:]])
        total = total - term if j % 2 else total + term
    return total


def _built_witnesses(ring, rng):
    """One witness from each of diagonalize, stable_diagonalize,
    resolve_block and steinberg_witness (none where no a has a and 1 - a
    both units)."""
    space = _random_space(ring, 3, rng)
    plane = BilinearSpace.hyperbolic(ring).orthogonal_sum(
        BilinearSpace.diagonal(ring, (ring.random_unit(rng),))
    )
    ideal = ring.maximal_ideal()
    witnesses = [
        diagonalize(space)[1],
        stable_diagonalize(plane)[2],
        resolve_block(ring, rng.choice(ideal), rng.choice(ideal))[1],
    ]
    a = next((u for u in ring.units() if (ring.one - u).is_unit()), None)
    if a is not None:
        witnesses.append(steinberg_witness(ring, a))
    return witnesses


def test_congruence_checker_rejects_single_entry_mutants(rings):
    """Change one entry of a built witness's source, target or matrix.  The
    checker rejects the mutant with the message for the first failing
    condition, unless the element-level reference finds M^T A M = B with
    det M a unit, in which case it accepts."""
    rng = seeded(22)
    outcomes = {}
    for ring in rings.values():
        for witness in _built_witnesses(ring, rng):
            n = len(witness.matrix)
            for g in range(3):
                for _ in range(4):
                    grids = [[list(row) for row in grid]
                             for grid in (witness.source, witness.target, witness.matrix)]
                    i, j = rng.randrange(n), rng.randrange(n)
                    old = grids[g][i][j]
                    grids[g][i][j] = rng.choice([e for e in ring.elements() if e != old])
                    source, target, matrix = (tuple(map(tuple, grid)) for grid in grids)
                    if _ref_congruent(matrix, source) != target:
                        expected = "M^T A M differs from the target"
                    elif not _ref_det(ring, matrix).is_unit():
                        expected = "witness determinant is not a unit"
                    else:
                        expected = "ok"
                    outcomes[expected] = outcomes.get(expected, 0) + 1
                    if expected == "ok":
                        assert CongruenceWitness(ring, source, target, matrix).check() == (True, "ok")
                        continue
                    with pytest.raises(BilinearError) as exc:
                        CongruenceWitness(ring, source, target, matrix)
                    assert str(exc.value) == f"invalid congruence witness: {expected}"
    assert outcomes["M^T A M differs from the target"] >= 400, outcomes


def _index_witnesses(ring, rng):
    """Witnesses made by CongruenceWitness._of: from stable_diagonalize on a
    random space and on a plane with a residual block, from diagonalize on
    both, and from is_isometric on a random plane and itself."""
    space = _random_space(ring, 3, rng)
    plane = BilinearSpace.hyperbolic(ring).orthogonal_sum(
        BilinearSpace.diagonal(ring, (ring.random_unit(rng),))
    )
    witnesses = [stable_diagonalize(S)[2] for S in (space, plane)]
    witnesses += [diagonalize(S)[1] for S in (space, plane)]
    small = _random_space(ring, 2, rng)
    witnesses.append(is_isometric(small, small).witness)
    return witnesses


def test_index_witness_checker_rejects_single_entry_mutants(rings):
    """Change one carrier index of the source, target or matrix of a witness
    the builders make from index grids, and make it again with
    CongruenceWitness._of.  The check accepts exactly when the element-level
    reference finds M^T A M = B with det M a unit, and otherwise raises the
    message of the first failing condition; half the target mutants touch
    the diagonal, so unit-diagonal targets lose a unit or gain an entry off
    the diagonal."""
    rng = seeded(32)
    outcomes = {}
    unit_diagonal = 0   # accepted mutants whose determinant the rule skipped
    for ring in rings.values():
        for witness in _index_witnesses(ring, rng):
            n = len(witness.matrix)
            for g in range(3):
                for _ in range(4):
                    grids = [[list(row) for row in grid] for grid in witness._indices]
                    i, j = rng.randrange(n), rng.randrange(n)
                    if g == 1 and rng.randrange(2):
                        j = i
                    old = grids[g][i][j]
                    grids[g][i][j] = rng.choice([x for x in range(ring.size) if x != old])
                    source, target, matrix = (tuple(map(tuple, grid)) for grid in grids)
                    A, B, M = ([[ring.elems[x] for x in row] for row in grid]
                               for grid in (source, target, matrix))
                    if _ref_congruent(M, A) != tuple(map(tuple, B)):
                        expected = "M^T A M differs from the target"
                    elif not _ref_det(ring, M).is_unit():
                        expected = "witness determinant is not a unit"
                    else:
                        expected = "ok"
                    outcomes[expected] = outcomes.get(expected, 0) + 1
                    if expected == "ok":
                        made = CongruenceWitness._of(ring, source, target, matrix)
                        assert made.check() == (True, "ok")
                        unit_diagonal += certify._is_unit_diagonal(ring, target)
                        continue
                    with pytest.raises(BilinearError) as exc:
                        CongruenceWitness._of(ring, source, target, matrix)
                    assert str(exc.value) == f"invalid congruence witness: {expected}"
    assert outcomes["M^T A M differs from the target"] >= 600, outcomes
    assert unit_diagonal >= 3, (unit_diagonal, outcomes)


def test_determinant_runs_only_off_a_unit_diagonal(monkeypatch):
    """check_congruence skips mat_det for a target that is diagonal with
    unit entries, and runs it for any other target, which still reports a
    non-unit determinant."""
    calls = []
    det = certify.mat_det

    def spy(ring, A):
        calls.append(A)
        return det(ring, A)

    monkeypatch.setattr(certify, "mat_det", spy)
    rng = seeded(33)
    for spec in ["Z/9", "GF(2)[x]/(x^4)", "GF(5)"]:
        ring = parse_ring(spec)
        for n in (2, 3, 4):
            space = _random_space(ring, n, rng)
            units, r, witness = stable_diagonalize(space)
            assert witness.check() == (True, "ok")
        assert calls == [], spec
    ring = parse_ring("Z/9")
    x = ring.from_int(3)
    I, H = _data(ident(ring, 2).gram), _data(BilinearSpace.hyperbolic(ring).gram)
    D = _data(((ring.one, ring.zero), (ring.zero, x)))
    xH = _data(((ring.zero, x), (x, ring.zero)))
    xx = _data(((ring.one, ring.zero), (ring.zero, x * x)))
    J, P = ((1, 1), (1, 1)), ((1, 1), (0, 0))          # P^T J P = J, det P = 0
    not_unit = (False, "witness determinant is not a unit")
    cases = [
        (I, I, I, (True, "ok"), 0),                      # unit diagonal target
        (I, H, I, (False, "M^T A M differs from the target"), 0),
        (H, H, I, (True, "ok"), 1),                      # off the diagonal
        (D, D, I, (True, "ok"), 1),                      # a non-unit on the diagonal
        (H, xH, D, not_unit, 1),
        (I, xx, D, not_unit, 1),
        (I, I, D, (False, "M^T A M differs from the target"), 0),
        (J, J, I, (True, "ok"), 1),                      # units on the diagonal, not only there
        (J, J, P, not_unit, 1),
    ]
    for source, target, matrix, expected, runs in cases:
        del calls[:]
        assert check_congruence(ring, source, target, matrix) == expected
        assert len(calls) == runs, (source, target, matrix)
    with pytest.raises(BilinearError, match="witness determinant is not a unit"):
        CongruenceWitness._of(ring, H, xH, D)


def _random_square(ring, n, rng):
    """A random n x n matrix, drawn so that its determinant is often not a
    unit: uniform entries, entries in the maximal ideal or 1, or a last row
    that is the sum of two rows plus a row of the maximal ideal."""
    ideal = ring.maximal_ideal()
    kind = rng.randrange(3)
    if kind == 1:
        pool = ideal + (ring.one,)
        return tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
    rows = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
    if kind == 2 and n >= 2:
        a, b = rng.randrange(n - 1), rng.randrange(n - 1)
        rows[-1] = [x + y + rng.choice(ideal) for x, y in zip(rows[a], rows[b])]
    return tuple(map(tuple, rows))


def test_mat_det_matches_cofactor_expansion(rings):
    """Unit-pivot elimination, with the division-free determinant behind
    it, gives the cofactor determinant exactly, units and non-units alike.
    Each matrix is checked again with its first column redrawn from the
    maximal ideal, which sends it to the fallback at once, often with a unit
    left in a later column."""
    rng, column_rng = seeded(28), seeded(30)
    units = {True: 0, False: 0}
    units_beside = 0
    for ring in rings.values():
        ideal = ring.maximal_ideal()
        for n in range(1, 7):
            for _ in range(12 if n < 6 else 3):
                M = _random_square(ring, n, rng)
                expected = _ref_det(ring, M)
                assert mx.mat_det(ring, M) == expected, (ring.spec, M)
                units[expected.is_unit()] += 1
                N = tuple((column_rng.choice(ideal),) + row[1:] for row in M)
                assert mx.mat_det(ring, N) == _ref_det(ring, N), (ring.spec, N)
                units_beside += any(x.is_unit() for row in N for x in row[1:])
    assert units[True] >= 200 and units[False] >= 400, units
    assert units_beside >= 300, units_beside


def test_congruence_checker_applies_the_determinant_rule(rings):
    """With A = B = 0, M^T A M = B for every M, so the check, on the carrier
    indices of the grids, accepts exactly when det M is a unit and otherwise
    names the determinant."""
    rng = seeded(29)
    outcomes = {}
    for ring in rings.values():
        for n in range(1, 6):
            zero = ((0,) * n,) * n
            for _ in range(10):
                M = _random_square(ring, n, rng)
                if _ref_det(ring, M).is_unit():
                    expected = (True, "ok")
                else:
                    expected = (False, "witness determinant is not a unit")
                assert check_congruence(ring, zero, zero, _data(M)) == expected, (ring.spec, M)
                outcomes[expected[0]] = outcomes.get(expected[0], 0) + 1
    assert outcomes[True] >= 150 and outcomes[False] >= 300, outcomes


def test_dense_rank_20_space_is_fast():
    """A dense random rank-20 space over Z/9: the unit determinant, the
    diagonalization and the stable diagonalization, each with its witness
    checked, are cubic in the rank."""
    ring = parse_ring("Z/9")
    rng, n = seeded(30), 20
    entries = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
    gram = tuple(tuple(entries[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    start = time.monotonic()
    space = BilinearSpace(ring, gram)
    report, witness = diagonalize(space)
    units, r, stable_witness = stable_diagonalize(space)
    assert time.monotonic() - start < 1.0
    assert report.l + 2 * report.r == n and len(units) == n + r
    assert witness.check() == (True, "ok") and stable_witness.check() == (True, "ok")
