import itertools
import json
import random
import sys
import time
import zlib
from pathlib import Path

import pytest

from wittlab import (
    BilinearSpace,
    Chain,
    ChainUnreachableError,
    FieldTooSmallError,
    IsotropicPartialSumError,
    OrthogonalBasis,
    all_orthogonal_bases,
    bfs_chain_oracle,
    chain_equal_mod_m,
    chain_field,
    chain_local,
    elementary_move,
    extend_vector_chain,
    find_nonvanishing_vector,
    hat_chain,
    lift_basis,
    lift_pair,
    parse_ring,
    random_diagonal_space,
    random_orthogonal_basis,
    standard_basis,
    verify_chain,
)
from wittlab import bilinear, certify, chains
from wittlab import matrices as mx
from wittlab.bilinear import NotInMaximalIdealError, orthogonal_complement
from wittlab.chains import ChainError, NotEqualModMError, NotOrthogonalOverResidueError
from wittlab.cli import run
from wittlab.rings import RingError

import elimination_reference as reference
from conftest import (
    F2_RESIDUE_SPECS, MATRIX_SPECS, lifted_hat_basis, residue_f2_pair, seeded,
    vec_add, vec_combo, vec_scale,
)
from paper_data import f4_chain_certificate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ringcheck  # noqa: E402


GOLDEN = Path(__file__).parent / "golden"


def ident_space(ring, n):
    return BilinearSpace.diagonal(ring, (ring.one,) * n)


def _idx(vectors):
    """Element vectors as the index tuples the private cores take."""
    return tuple(tuple(c.data for c in v) for v in vectors)


def _els(ring, vectors):
    """Index tuples back as element vectors."""
    return tuple(tuple(ring.elems[d] for d in v) for v in vectors)


def hat_basis(space):
    e = space.standard_basis()
    vecs = []
    for r in range(space.n):
        acc = space.zero_vector()
        for i in range(space.n):
            if i != r:
                acc = vec_add(acc, e[i])
        vecs.append(acc)
    return OrthogonalBasis(space, vecs)


# ---------------------------------------------------------------------------
# verify_chain
# ---------------------------------------------------------------------------


def test_verify_singleton_chain():
    F3 = parse_ring("GF(3)")
    S = ident_space(F3, 3)
    B = standard_basis(S)
    chain = Chain(S, [B])
    ok, msg = verify_chain(chain, B, B)
    assert ok, msg


def test_verify_rejects_three_vector_step():
    F5 = parse_ring("GF(5)")
    S = ident_space(F5, 3)
    B = standard_basis(S)
    two = F5.from_int(2)
    other = OrthogonalBasis(S, [tuple(two * c for c in v) for v in B.vectors])
    chain = Chain(S, [B, other])
    ok, msg = verify_chain(chain, B, other)
    assert not ok
    assert "step 0" in msg


def test_verify_rejects_wrong_endpoint():
    F3 = parse_ring("GF(3)")
    S = ident_space(F3, 2)
    B = standard_basis(S)
    two = F3.from_int(2)
    C = OrthogonalBasis(S, [tuple(two * c for c in v) for v in B.vectors])
    chain = Chain(S, [B])
    ok, msg = verify_chain(chain, B, C)
    assert not ok


def test_paper_f4_chain_verifies():
    cert = f4_chain_certificate()
    chain = Chain.from_json(cert)
    assert len(chain) == 8
    S = chain.space
    ok, msg = verify_chain(chain, standard_basis(S), hat_basis(S))
    assert ok, msg


def _reference_basis_error(space, vectors):
    """Every check on one basis in full, determinant included; None if it passes."""
    n = space.n
    if len(vectors) != n:
        return f"expected {n} vectors, got {len(vectors)}"
    for v in vectors:
        if len(v) != n:
            return "vector length does not match the space dimension"
        space.ring.check_elements(v)
    for i in range(n):
        if not space.eval_q(vectors[i]).is_unit():
            return f"vector {i} is not anisotropic"
        for j in range(i + 1, n):
            if not space.eval_b(vectors[i], vectors[j]).is_zero():
                return f"vectors {i} and {j} are not orthogonal"
    if n and not mx.mat_det(space.ring, mx.mat_transpose(vectors)).is_unit():
        return "vectors do not form a basis (determinant not a unit)"
    return None


def reference_verify(chain, start, end):
    """verify_chain checking every basis in full and comparing vector sets."""
    n = chain.space.n
    for idx, basis in enumerate(chain.bases):
        if basis.space != chain.space:
            return False, f"basis {idx} lives on a different space"
        msg = _reference_basis_error(chain.space, basis.vectors)
        if msg is not None:
            return False, f"basis {idx}: {msg}"
    for idx in range(len(chain.bases) - 1):
        overlap = chain.bases[idx].vector_set() & chain.bases[idx + 1].vector_set()
        if len(overlap) < n - 2:
            return False, (
                f"step {idx} -> {idx + 1} replaces more than two vectors "
                f"(overlap {len(overlap)} < {n - 2})"
            )
    if chain.bases[0].vector_set() != start.vector_set():
        return False, "chain does not start at the requested basis"
    if chain.bases[-1].vector_set() != end.vector_set():
        return False, "chain does not end at the requested basis"
    return True, "ok"


def _outcome(check, chain, start, end):
    try:
        return check(chain, start, end)
    except RingError as exc:  # the ring check raises instead of returning
        return RingError, str(exc)


def assert_same_verdict(chain, start, end):
    got = _outcome(verify_chain, chain, start, end)
    assert got == _outcome(reference_verify, chain, start, end)
    return got


def _with_basis(chain, idx, vectors):
    bases = list(chain.bases)
    bases[idx] = OrthogonalBasis(chain.space, vectors, validate=False)
    return Chain(chain.space, bases)


def _sample_chain(spec, n, seed):
    """A built chain of at least four bases, with its endpoints."""
    ring = parse_ring(spec)
    rng = seeded(seed)
    S = random_diagonal_space(ring, n, rng)
    while True:
        A, B = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
        chain = chain_local(A, B)
        if len(chain) >= 4:
            return chain, A, B


def test_incremental_check_rejects_a_vector_changed_in_one_middle_basis():
    chain, A, B = _sample_chain("Z/9", 3, 3)
    one = chain.space.ring.one
    rejected = []
    for idx in range(1, len(chain) - 1):
        for pos in range(3):
            vecs = list(chain.bases[idx].vectors)
            vecs[pos] = (vecs[pos][0] + one,) + vecs[pos][1:]
            ok, msg = assert_same_verdict(_with_basis(chain, idx, vecs), A, B)
            if not ok:
                assert msg.startswith(f"basis {idx}: "), msg
                rejected.append(msg)
    # a changed vector may stay valid: v + e_1 is a multiple of v when v is one of e_1
    assert len(rejected) > 2 * (len(chain) - 2)


def test_incremental_check_rejects_a_pair_first_met_in_a_later_basis():
    F5 = parse_ring("GF(5)")
    S = ident_space(F5, 3)
    e1, e2, e3 = S.standard_basis()
    y, y2 = (F5.one, F5.one, F5.zero), (F5.one, F5.from_int(4), F5.zero)
    bases = [(e1, e2, e3), (y, y2, e3), (e1, y, e3)]
    chain = Chain(S, [OrthogonalBasis(S, b, validate=False) for b in bases])
    start, end = OrthogonalBasis(S, bases[0]), OrthogonalBasis(S, bases[1])
    # e1 and y each passed in an earlier basis; only their pair is new
    assert assert_same_verdict(chain, start, end) == (
        False, "basis 2: vectors 0 and 1 are not orthogonal"
    )
    # the same on a built chain: a later basis takes in a vector of an
    # earlier one that is not orthogonal to all of its other vectors
    chain, A, B = _sample_chain("GF(5)", 4, 11)
    seen, cases = [], 0
    for idx, basis in enumerate(chain.bases):
        for old in seen:
            if old in basis.vectors:
                continue
            for pos in range(4):
                others = [v for k, v in enumerate(basis.vectors) if k != pos]
                if all(chain.space.eval_b(old, v).is_zero() for v in others):
                    continue
                vecs = list(basis.vectors)
                vecs[pos] = old
                ok, msg = assert_same_verdict(_with_basis(chain, idx, vecs), A, B)
                assert not ok and "not orthogonal" in msg, msg
                cases += 1
        seen.extend(v for v in basis.vectors if v not in seen)
    assert cases > 20


@pytest.mark.parametrize("spec", ["GF(5)", "GF(4)", "Z/9"])
def test_incremental_check_rejects_a_vector_repeated_within_a_basis(spec):
    chain, A, B = _sample_chain(spec, 3, 5)
    for idx in range(len(chain)):
        for i, j in itertools.combinations(range(3), 2):
            vecs = list(chain.bases[idx].vectors)
            vecs[j] = vecs[i]
            assert assert_same_verdict(_with_basis(chain, idx, vecs), A, B) == (
                False, f"basis {idx}: vectors {i} and {j} are not orthogonal"
            )


def test_incremental_check_rejects_a_wrong_length_in_the_last_basis():
    chain, A, B = _sample_chain("GF(3)[x]/(x^2)", 3, 7)
    last = len(chain) - 1
    zero = chain.space.ring.zero
    for pos in range(3):
        for change in (lambda v: v[:-1], lambda v: v + (zero,)):
            vecs = list(chain.bases[last].vectors)
            vecs[pos] = change(vecs[pos])
            assert assert_same_verdict(_with_basis(chain, last, vecs), A, B) == (
                False, f"basis {last}: vector length does not match the space dimension"
            )


def test_incremental_check_accepts_permuted_endpoints():
    chain, A, B = _sample_chain("GF(9)", 4, 13)
    for perm in itertools.permutations(range(4)):
        start = OrthogonalBasis(chain.space, [A.vectors[k] for k in perm], validate=False)
        end = OrthogonalBasis(chain.space, [B.vectors[k] for k in perm[::-1]], validate=False)
        assert assert_same_verdict(chain, start, end) == (True, "ok")
    assert assert_same_verdict(chain, B, B) == (
        False, "chain does not start at the requested basis"
    )


@pytest.mark.parametrize("spec", ["GF(4)", "GF(5)", "Z/9", "Z/27", "GF(4)[y]/(y^2)"])
def test_incremental_check_agrees_with_the_full_check_on_random_mutants(spec):
    chain, A, B = _sample_chain(spec, 4, zlib.crc32(spec.encode()))
    ring, space = chain.space.ring, chain.space
    other_ring = parse_ring("GF(7)")
    pool = [v for b in chain.bases for v in b.vectors]
    rng = seeded(17)
    verdicts = set()
    for _ in range(150):
        bases = [list(b.vectors) for b in chain.bases]
        start, end = A.vectors, B.vectors
        for _ in range(rng.randrange(1, 3)):
            idx, pos = rng.randrange(len(bases)), rng.randrange(4)
            kind = rng.randrange(7)
            if kind == 0:    # a random vector
                bases[idx][pos] = tuple(ring.random_element(rng) for _ in range(4))
            elif kind == 1:  # a vector of another basis
                bases[idx][pos] = rng.choice(pool)
            elif kind == 2:  # a vector of the same basis
                bases[idx][pos] = bases[idx][rng.randrange(4)]
            elif kind == 3:  # one vector too few or too many
                bases[idx] = bases[idx][:3] if rng.random() < 0.5 else bases[idx] + [pool[0]]
            elif kind == 4:  # a basis left out
                if len(bases) > 1:
                    del bases[idx]
            elif kind == 5:  # an entry from another ring
                v = list(bases[idx][pos])
                v[rng.randrange(4)] = other_ring.one
                bases[idx][pos] = tuple(v)
            else:            # endpoints swapped
                start, end = end, start
        mutant = Chain(space, [OrthogonalBasis(space, b, validate=False) for b in bases])
        got = assert_same_verdict(
            mutant,
            OrthogonalBasis(space, start, validate=False),
            OrthogonalBasis(space, end, validate=False),
        )
        verdicts.add(got[1].split(": ")[-1].split(" (")[0])
        # the same verdict between judged and between unjudged ``_of``
        # endpoints, on the mutant and, where its entries lie in the ring,
        # on the mutant made of index tuples as the builders make them
        forms = [mutant]
        if all(e.ring == ring for b in bases for v in b for e in v):
            forms.append(Chain(space, [OrthogonalBasis._of(space, _idx(b)) for b in bases]))
        for chain_form in forms:
            for ends in ((OrthogonalBasis(space, start), OrthogonalBasis(space, end)),
                         (OrthogonalBasis._of(space, _idx(start)),
                          OrthogonalBasis._of(space, _idx(end)))):
                assert _outcome(verify_chain, chain_form, *ends) == got
    assert len(verdicts) >= 5, verdicts


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("spec", MATRIX_SPECS + F2_RESIDUE_SPECS)
def test_verify_chain_checks_each_basis_against_the_one_before(spec, n, monkeypatch):
    """The checker's cost per basis: between unjudged ``_of`` endpoints b
    runs n(n+1)/2 times on the first basis, a full check, and at most
    2n - 1 times on each later one, which keeps n - 2 vectors of the basis
    before it.  Between the judged endpoints the chain was built from, the
    first and last bases cost nothing and the others keep the 2n - 1
    bound.  Over residue F_2, random endpoints are kept where a chain joins
    them."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(f"{spec} {n}".encode()))
    S = random_diagonal_space(ring, n, rng)
    built = []
    for _ in range(6):
        A, B = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
        try:
            built.append((chain_local(A, B), A, B))
        except ChainUnreachableError:
            continue
    assert built
    costs = []

    def counted_b(*args, _original=certify._b):
        costs[-1] += 1
        return _original(*args)

    def per_basis(*args, _original=certify._check_orthobasis):
        costs.append(0)
        return _original(*args)

    monkeypatch.setattr(certify, "_b", counted_b)
    monkeypatch.setattr(certify, "_check_orthobasis", per_basis)
    for chain, A, B in built:
        costs.clear()
        assert verify_chain(chain, A, B) == (True, "ok")
        assert len(costs) == len(chain)
        assert costs[0] == costs[-1] == 0, costs
        assert max(costs) <= 2 * n - 1, costs
        costs.clear()
        start, end = OrthogonalBasis._of(S, A.indices), OrthogonalBasis._of(S, B.indices)
        assert verify_chain(chain, start, end) == (True, "ok")
        assert len(costs) == len(chain)
        assert costs[0] == n * (n + 1) // 2, costs
        assert max(costs[1:], default=0) <= 2 * n - 1, costs


def test_verify_chain_judges_in_full_what_no_judged_endpoint_covers(monkeypatch):
    """A first basis is checked in full (``prev`` empty), with the full
    check's verdict and diagnostic, unless it holds the vectors of an
    endpoint judged on the chain's own space: so between ``_of`` endpoints,
    between endpoints judged on an equal but other space, and where the
    first basis differs from the judged start.  A last basis that differs
    from the judged end is checked against the basis before it."""
    prevs = []

    def spy(space, basis, prev=frozenset(), _original=certify._check_orthobasis):
        prevs.append(prev)
        return _original(space, basis, prev)

    monkeypatch.setattr(certify, "_check_orthobasis", spy)
    for spec in ("GF(5)", "GF(4)", "Z/9", "GF(4)[y]/(y^2)"):
        chain, A, B = _sample_chain(spec, 4, zlib.crc32(spec.encode()))
        S, ring = chain.space, chain.space.ring
        twin = BilinearSpace(ring, S.gram)
        assert twin == S and twin is not S
        for start, end in (
            (OrthogonalBasis._of(S, A.indices), OrthogonalBasis._of(S, B.indices)),
            (OrthogonalBasis(twin, A.vectors), OrthogonalBasis(twin, B.vectors)),
        ):
            prevs.clear()
            assert assert_same_verdict(chain, start, end) == (True, "ok")
            assert prevs[0] == frozenset() and prevs[-1] == frozenset(chain.bases[-2].indices)
        rng = seeded(zlib.crc32(spec.encode()) + 1)
        pool = [v for b in chain.bases for v in b.vectors]
        unit = ring.units()[1]
        cases = 0
        for idx in (0, len(chain) - 1):
            for pos in range(4):
                vecs = list(chain.bases[idx].vectors)
                for new in (tuple(unit * c for c in vecs[pos]), rng.choice(pool),
                            tuple(ring.random_element(rng) for _ in range(4))):
                    changed = vecs[:pos] + [new] + vecs[pos + 1:]
                    if frozenset(changed) == frozenset(chain.bases[idx].vectors):
                        continue
                    bases = list(chain.bases)
                    bases[idx] = OrthogonalBasis._of(S, _idx(changed))
                    prevs.clear()
                    ok, msg = assert_same_verdict(Chain(S, bases), A, B)
                    assert not ok, msg
                    if idx == 0:
                        assert prevs[0] == frozenset(), msg
                    elif len(prevs) == len(chain):
                        assert prevs[-1] == frozenset(chain.bases[-2].indices), msg
                    cases += 1
        assert cases >= 16


@pytest.mark.parametrize("spec", ["GF(5)", "GF(4)", "Z/27", "GF(4)[y]/(y^2)"])
def test_only_a_full_check_marks_a_basis_judged(spec):
    """A basis checked against the one before it is not marked judged, so
    ``chain_local`` from a later basis of a chain evaluates its q-values
    afresh and builds the chain it builds from an ``_of`` copy; a basis
    checked in full carries its space and q-values."""
    chain, A, B = _sample_chain(spec, 4, zlib.crc32(spec.encode()))
    S = chain.space
    assert A._judged == (S, tuple(q.data for q in A.q_values()))
    assert all(basis._judged is None for basis in chain.bases)
    start = OrthogonalBasis._of(S, A.indices)
    assert verify_chain(chain, start, B) == (True, "ok")
    assert chain.bases[0]._judged == A._judged and start._judged is None
    for basis in chain.bases[1:]:
        assert basis._judged is None
        copy = OrthogonalBasis._of(S, basis.indices)
        assert chain_local(basis, B).to_json() == chain_local(copy, B).to_json()


def test_orthogonal_basis_checks_the_ring_of_each_vector_once(monkeypatch):
    """The basis check fills the index tuples from the vectors whose ring
    it has just checked, so no vector's ring is checked twice."""
    F5 = parse_ring("GF(5)")
    S = ident_space(F5, 4)
    vectors = S.standard_basis()
    calls = []

    def counted(elements, _original=F5.check_elements):
        calls.append(elements)
        return _original(elements)

    monkeypatch.setattr(F5, "check_elements", counted)
    basis = OrthogonalBasis(S, vectors)
    assert basis.indices == _idx(vectors)
    assert calls == list(vectors)


def _implication_grams(ring, n):
    """Gram matrices <1, u>, the hyperbolic plane and [[1, 1], [1, 0]], each
    padded to size n by <u>."""
    z, one, u = ring.zero, ring.one, ring.units()[-1]
    for block in (((one, z), (z, u)), ((z, one), (one, z)), ((one, one), (one, z))):
        gram = [list(row) + [z] * (n - 2) for row in block]
        gram += [[z] * i + [u] + [z] * (n - 1 - i) for i in range(2, n)]
        yield gram


@pytest.mark.parametrize("spec, n", [
    (spec, 2) for spec in ("GF(3)", "GF(4)", "GF(5)", "Z/4", "Z/8", "Z/9", "GF(2)[x]/(x^2)")
] + [(spec, 3) for spec in ("GF(3)", "GF(4)", "GF(5)", "Z/4")])
def test_orthogonal_unit_tuples_have_unit_determinant(spec, n):
    """Why the basis check computes no determinant: det(M)^2 det(A) is the
    product of the q-values, so every n-tuple of pairwise orthogonal
    vectors with unit q-values has a unit determinant."""
    ring = parse_ring(spec)
    found = 0
    for gram in _implication_grams(ring, n):
        space = BilinearSpace(ring, gram)
        vectors = itertools.product(tuple(ring.elements()), repeat=n)
        aniso = [v for v in vectors if space.eval_q(v).is_unit()]
        stack = [((), aniso)]
        while stack:
            chosen, pool = stack.pop()
            if len(chosen) == n:
                assert mx.mat_det(ring, mx.mat_transpose(chosen)).is_unit(), chosen
                found += 1
                continue
            for v in pool:
                stack.append((chosen + (v,), [w for w in pool if space.eval_b(v, w).is_zero()]))
    assert found > 0


# ---------------------------------------------------------------------------
# elementary moves and equal-mod-m chains
# ---------------------------------------------------------------------------


def test_elementary_move_zero_eps():
    Z9 = parse_ring("Z/9")
    S = ident_space(Z9, 2)
    B = standard_basis(S)
    assert elementary_move(B, Z9.zero, 0, 1).vectors == B.vectors


def test_elementary_move_z4():
    Z4 = parse_ring("Z/4")
    S = ident_space(Z4, 2)
    B = standard_basis(S)
    two = Z4.from_int(2)
    B2 = elementary_move(B, two, 0, 1)
    assert B2.vectors[0] == (Z4.one, two)
    assert B2.vectors[1] == (two, Z4.one)
    assert S.eval_b(B2.vectors[0], B2.vectors[1]).is_zero()


def test_elementary_move_poly_ring():
    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    S = ident_space(R, 2)
    B = standard_basis(S)
    B2 = elementary_move(B, x, 0, 1)
    expected_q = R.one + x * x
    assert B2.q_values() == (expected_q, expected_q)
    # reduces to the original basis and differs in exactly the two slots
    assert B2.reduce().vectors == B.reduce().vectors
    assert sum(u != v for u, v in zip(B.vectors, B2.vectors)) == 2


def test_elementary_move_rejects_unit_eps():
    Z9 = parse_ring("Z/9")
    B = standard_basis(ident_space(Z9, 2))
    with pytest.raises(NotInMaximalIdealError):
        elementary_move(B, Z9.one, 0, 1)


@pytest.mark.parametrize("i, j", [(-1, 2), (5, 0), (0, 3), (1, 1)])
def test_elementary_move_rejects_positions_outside_the_basis(i, j):
    # Python indexes with -1 too, so an unchecked (-1, 2) names u_2 twice
    # and returns (1 - eps) u_2 in its slot instead of an elementary move
    Z9 = parse_ring("Z/9")
    B = standard_basis(BilinearSpace.diagonal(Z9, (Z9.one, Z9.from_int(2), Z9.one)))
    with pytest.raises(ChainError, match="positions must"):
        elementary_move(B, Z9.from_int(3), i, j)


def test_chain_equal_mod_m_identity():
    Z9 = parse_ring("Z/9")
    B = standard_basis(ident_space(Z9, 3))
    chain = chain_equal_mod_m(B, B)
    assert len(chain) == 1


def test_chain_equal_mod_m_move_pair():
    Z4 = parse_ring("Z/4")
    S = ident_space(Z4, 2)
    B = standard_basis(S)
    B2 = elementary_move(B, Z4.from_int(2), 0, 1)
    chain = chain_equal_mod_m(B, B2)
    assert len(chain) <= 2


def test_chain_equal_mod_m_random_perturbations():
    rng = seeded(11)
    for spec in ["Z/9", "Z/27", "GF(2)[x]/(x^4)", "GF(4)[y]/(y^2)"]:
        ring = parse_ring(spec)
        ideal = ring.maximal_ideal()
        for n in (3, 4):
            S = random_diagonal_space(ring, n, rng)
            B = standard_basis(S)
            C = B
            for _ in range(5):
                i, j = rng.sample(range(n), 2)
                eps = ideal[rng.randrange(len(ideal))]
                C = elementary_move(C, eps, i, j)
            chain = chain_equal_mod_m(B, C)
            ok, msg = verify_chain(chain, B, C)
            assert ok, msg


def test_chain_equal_mod_m_folds_the_head_rescaling_into_the_first_move():
    """The target's first vector is 4 e_1 + 3 e_2 over Z/9: the rescaling of
    e_1 by 4 and the move by 3 e_2 are one step."""
    Z9 = parse_ring("Z/9")
    S = ident_space(Z9, 3)
    E = standard_basis(S)
    four, zero, one = Z9.from_int(4), Z9.zero, Z9.one
    scaled = OrthogonalBasis(S, [(four, zero, zero), (zero, one, zero), (zero, zero, one)])
    C = elementary_move(scaled, Z9.from_int(3), 0, 1)
    assert len(chain_equal_mod_m(E, C)) == 2
    assert len(chain_equal_mod_m(E, scaled)) == 2


def test_chain_equal_mod_m_rejects_different_reductions():
    F3 = parse_ring("GF(3)")
    S = ident_space(F3, 3)
    B = standard_basis(S)
    two = F3.from_int(2)
    C = OrthogonalBasis(S, [tuple(two * c for c in v) for v in B.vectors])
    with pytest.raises(NotEqualModMError):
        chain_equal_mod_m(B, C)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lift_identity_on_fields():
    F5 = parse_ring("GF(5)")
    S = ident_space(F5, 3)
    B = standard_basis(S)
    lifted = lift_basis(S, B.vectors)
    assert lifted.vectors == B.vectors


def test_lift_z9_perturbed_form():
    Z9 = parse_ring("Z/9")
    three = Z9.from_int(3)
    S = BilinearSpace(Z9, ((Z9.one, three), (three, Z9.one)))
    rb = S.reduce().standard_basis()
    lifted = lift_basis(S, rb)
    assert S.eval_b(lifted.vectors[0], lifted.vectors[1]).is_zero()
    assert lifted.reduce().vectors == rb


def test_lift_poly_ring_form():
    R = parse_ring("GF(2)[x]/(x^4)")
    x = R.element_from_json([0, 1])
    S = BilinearSpace(R, ((R.one, x), (x, R.one + x * x)))
    rb = S.reduce().standard_basis()
    lifted = lift_basis(S, rb)
    assert S.eval_b(lifted.vectors[0], lifted.vectors[1]).is_zero()


def test_lift_rejects_non_orthogonal_residue_input():
    Z9 = parse_ring("Z/9")
    S = ident_space(Z9, 2)
    F3 = Z9.residue_field()
    bad = ((F3.one, F3.one), (F3.zero, F3.one))
    with pytest.raises(NotOrthogonalOverResidueError):
        lift_basis(S, bad)


def test_lift_pair_shares_positions():
    rng = seeded(5)
    Z27 = parse_ring("Z/27")
    S = random_diagonal_space(Z27, 4, rng)
    rspace = S.reduce()
    rb = standard_basis(rspace)
    other = random_orthogonal_basis(rspace, rng)
    chain = chain_field(rb, other)
    for i in range(len(chain) - 1):
        bbar, cbar = chain.bases[i], chain.bases[i + 1]
        from wittlab.chains import _align_step

        aligned = _align_step(_idx(bbar.vectors), frozenset(_idx(cbar.vectors)))
        B, C = lift_pair(S, bbar.vectors, _els(rspace.ring, aligned))
        diff = sum(u != v for u, v in zip(B.vectors, C.vectors))
        assert diff <= 2
        assert B.reduce().vectors == bbar.vectors


@pytest.mark.parametrize("length", [2, 4])
def test_lift_pair_rejects_a_residue_vector_of_another_length(length):
    Z9 = parse_ring("Z/9")
    S = ident_space(Z9, 3)
    F3 = Z9.residue_field()
    rb = S.reduce().standard_basis()
    cbar = rb[:2] + ((F3.zero,) * (length - 1) + (F3.one,),)
    with pytest.raises(chains.ChainError, match="length"):
        lift_pair(S, rb, cbar)


def _lift_one_from_scratch(space, chosen, vbar):
    """Lift vbar into the orthogonal complement of the chosen lifts by
    eliminating the complement and solving over the residue field afresh,
    with the reference elimination."""
    ring = space.ring
    if not chosen:
        return tuple(ring.lift(c) for c in vbar)
    comp = reference.orthogonal_complement(space, chosen)
    comp_red = tuple(space.reduce_vector(w) for w in comp)
    sol = reference.solve_field(ring.residue_field(), mx.mat_transpose(comp_red), vbar)
    if sol is None:
        raise NotOrthogonalOverResidueError("not orthogonal")
    return vec_combo(comp, tuple(ring.lift(c) for c in sol))


def _lift_step_from_scratch(space, cur, bbar, cbar):
    """cur kept where bbar and cbar agree, each differing vector of cbar
    lifted from scratch into the complement of the kept and new ones."""
    diff = [i for i in range(len(bbar)) if bbar[i] != cbar[i]]
    cvecs = list(cur)
    kept = [cur[i] for i in range(len(bbar)) if i not in diff]
    new: list = []
    for d in diff:
        new.append(_lift_one_from_scratch(space, kept + new, cbar[d]))
        cvecs[d] = new[-1]
    return tuple(cvecs)


def _lift_pair_from_scratch(space, bbar, cbar):
    lifts: list = []
    for vbar in bbar:
        lifts.append(_lift_one_from_scratch(space, lifts, vbar))
    return tuple(lifts), _lift_step_from_scratch(space, lifts, bbar, cbar)


def _perturbed(space, lifts, rng):
    """Lifts moved by elementary moves with random eps in m: an orthogonal
    basis equal to them mod m whose vectors are not canonical lifts."""
    ideal = space.ring.maximal_ideal()
    basis = OrthogonalBasis(space, lifts)
    for _ in range(len(lifts)):
        i, j = rng.sample(range(len(lifts)), 2)
        basis = elementary_move(basis, ideal[rng.randrange(len(ideal))], i, j)
    return basis.vectors


def _lift_outcome(lift, *args):
    """The lifts as element tuples, or the type of a residue rejection."""
    try:
        return lift(*args)
    except NotOrthogonalOverResidueError as exc:
        return type(exc)


def _random_congruent_space(ring, n, rng):
    """M^T D M for a random unit diagonal D and a random invertible M: a
    space with an orthogonal basis whose Gram matrix is not diagonal."""
    D = BilinearSpace.diagonal(ring, tuple(ring.random_unit(rng) for _ in range(n))).gram
    while True:
        M = tuple(tuple(ring.random_element(rng) for _ in range(n)) for _ in range(n))
        if mx.mat_det(ring, M).is_unit():
            return BilinearSpace(ring, mx.congruent(M, D))


def _residue_neighbours(rspace, bbar, rng):
    """Residue tuples differing from bbar in at most two positions: bbar
    itself, one position rescaled, two positions turned in their plane, and
    mutants with a random or zero vector in a differing position."""
    F = rspace.ring
    n = len(bbar)
    out = [bbar]
    i = rng.randrange(n)
    c = F.random_unit(rng)
    out.append(bbar[:i] + (vec_scale(c, bbar[i]),) + bbar[i + 1:])
    if n >= 2:
        i, j = sorted(rng.sample(range(n), 2))
        bi, bj = bbar[i], bbar[j]
        qi, qj = rspace.eval_q(bi), rspace.eval_q(bj)
        for _ in range(20):
            a, b = F.random_element(rng), F.random_element(rng)
            u = vec_add(vec_scale(a, bi), vec_scale(b, bj))
            if rspace.eval_q(u).is_unit():
                w = vec_add(vec_scale(-b * qj, bi), vec_scale(a * qi, bj))
                turned = list(bbar)
                turned[i], turned[j] = u, w
                out.append(tuple(turned))
                break
    for t in list(out[1:]):
        diff = [k for k in range(n) if t[k] != bbar[k]]
        if not diff:
            continue
        for mutant in (
            tuple(F.random_element(rng) for _ in range(n)),
            (F.zero,) * n,
        ):
            m = list(t)
            m[rng.choice(diff)] = mutant
            out.append(tuple(m))
    return out


LIFT_SPECS = [
    "Z/9", "Z/27", "Z/25", "GF(3)[x]/(x^2)", "GF(4)[y]/(y^2)", "GF(5)[x]/(x^2)",
    "GF(3)[x]/(x^3)", "Z/4", "GF(2)[x]/(x^3)", "Z/8",
]


@pytest.mark.parametrize("spec", LIFT_SPECS)
def test_lift_pair_core_matches_lifting_from_scratch(spec):
    """The incremental lifts are the lifts of solving over the residue
    field in a freshly eliminated complement, and both reject the same
    inputs, on non-diagonal Gram matrices with rescaled, turned and
    non-orthogonal residue neighbours.  So is the in-place step from a
    basis whose kept vectors are not canonical lifts."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    outcomes = {"lifted": 0, "rejected": 0, "perturbed": 0}

    def pair_core(space, bbar, cbar):
        return tuple(_els(ring, t) for t in chains._lift_pair_core(space, _idx(bbar), _idx(cbar)))

    def step(space, cur, bbar, cbar):
        return _els(ring, chains._lift_step(space, _idx(cur), _idx(bbar), _idx(cbar)))

    for n in (2, 3, 4):
        for _ in range(25):
            space = _random_congruent_space(ring, n, rng)
            rspace = space.reduce()
            bbar = random_orthogonal_basis(rspace, rng).vectors
            fresh = _lift_pair_from_scratch(space, bbar, bbar)[0]
            cur = _perturbed(space, fresh, rng)
            outcomes["perturbed"] += cur != fresh
            for cbar in _residue_neighbours(rspace, bbar, rng):
                for lift, reference_lift, args in (
                    (pair_core, _lift_pair_from_scratch, (space, bbar, cbar)),
                    (step, _lift_step_from_scratch, (space, cur, bbar, cbar)),
                ):
                    got = _lift_outcome(lift, *args)
                    assert got == _lift_outcome(reference_lift, *args), (n, args)
                    outcomes["rejected" if got is NotOrthogonalOverResidueError else "lifted"] += 1
    assert outcomes["lifted"] >= 300 and outcomes["rejected"] >= 30, outcomes
    assert outcomes["perturbed"] >= 50, outcomes


@pytest.mark.parametrize(
    "spec", [s for s in LIFT_SPECS if parse_ring(s).residue_field().size > 2]
)
def test_chain_local_on_congruent_spaces(spec):
    """chain_local on non-diagonal Gram matrices M^T D M."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 4)
    for n in (2, 3, 4):
        for _ in range(3):
            S = _random_congruent_space(ring, n, rng)
            b, c = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
            ok, msg = verify_chain(chain_local(b, c), b, c)
            assert ok, msg


@pytest.mark.parametrize("spec", ["Z/27", "GF(4)[y]/(y^2)"])
def test_chain_local_calls_no_kernel_or_field_solve(spec, monkeypatch):
    """chain_local over a residue field other than F_2 calls neither
    ``Echelon.kernel``, ``kernel_basis`` nor ``solve_field``: the contraction
    loop writes each complement in closed form in the plane of two vectors
    of the basis it carries."""
    ring = parse_ring(spec)
    rng = seeded(23)
    space = random_diagonal_space(ring, 4, rng)
    ends = [(random_orthogonal_basis(space, rng), random_orthogonal_basis(space, rng))
            for _ in range(3)]

    def banned(*args):
        raise AssertionError("complement eliminated from scratch")

    monkeypatch.setattr(mx.Echelon, "kernel", banned)
    monkeypatch.setattr(mx, "kernel_basis", banned)
    monkeypatch.setattr(mx, "solve_field", banned)
    for b, c in ends:
        chain = chain_local(b, c)
        assert verify_chain(chain, b, c)[0]


ODD_RESIDUE_SPECS = ["Z/9", "Z/27", "GF(3)[x]/(x^2)"]
CHAR2_SPECS = ["GF(4)", "GF(8)", "GF(4)[y]/(y^2)"]


@pytest.mark.parametrize(
    "spec", ODD_RESIDUE_SPECS + CHAR2_SPECS + ["GF(5)", "GF(4)[y]/(y^3)", "GF(8)[y]/(y^2)"]
)
def test_chain_local_contracts_over_odd_residue_rings_directly(spec, monkeypatch):
    """On every ring whose residue field is not F_2, chain_local runs the
    contraction loop over R itself: no residue chain, no lift and no
    equal-mod-m splice."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 5)

    def banned(*args):
        raise AssertionError("chain_local took the lift route")

    for name in ("_lift_step", "_lift_pair_core", "_equal_mod_m_core"):
        monkeypatch.setattr(chains, name, banned)
    for n in (2, 3, 4):
        for make_space in (random_diagonal_space, _random_congruent_space):
            S = make_space(ring, n, rng)
            for _ in range(3):
                b, c = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
                assert verify_chain(chain_local(b, c), b, c)[0]


def _rotation_bound(n):
    """Bases per chain in residue characteristic 2 (n >= 3): each level of
    dimension k >= 4 may take k + 1 steps, two more than where 2 is a unit."""
    return n * (n - 1) // 2 + 1 + 2 * (n - 3)


@pytest.mark.parametrize("spec", CHAR2_SPECS)
def test_residue_char2_chains_stay_within_the_rotation_bound(spec):
    """On diagonal and non-diagonal Gram matrices, n = 3..8; at n = 3 the
    bound is n(n-1)/2 + 1, as no rotation runs there."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 8)
    for n in range(3, 9):
        for make_space in (random_diagonal_space, _random_congruent_space):
            S = make_space(ring, n, rng)
            for _ in range(3):
                b, c = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
                assert len(chain_local(b, c)) <= _rotation_bound(n), (n, make_space)


@pytest.mark.parametrize("spec", CHAR2_SPECS)
def test_e_to_e_hat_forces_the_rotation(spec):
    """hat_e_1 = e_2 + e_3 + e_4 has an odd support of equal values a_i = 1
    in e, so no pair contracts and the loop first rotates e_2 with e_1, the
    first position outside the support; a contraction never touches e_1.
    Over GF(4) the chain has the 8 bases of the paper's certificate."""
    ring = parse_ring(spec)
    S = ident_space(ring, 4)
    E = standard_basis(S)
    for target in (hat_basis(S), lifted_hat_basis(S)):
        chain = chain_local(E, target)
        assert verify_chain(chain, E, target) == (True, "ok")
        assert len(chain) <= _rotation_bound(4)
        assert E.vectors[0] not in chain.bases[1].vectors
        assert E.vectors[2:] == chain.bases[1].vectors[2:]
        if spec == "GF(4)":
            assert len(chain) == 8


BOUND_SPECS = [
    "Z/9", "Z/25", "Z/27", "Z/81", "Z/243", "GF(3)[x]/(x^2)", "GF(3)[x]/(x^3)",
    "GF(5)[x]/(x^2)", "GF(9)[y]/(y^2)",
]


@pytest.mark.parametrize("spec", BOUND_SPECS)
def test_odd_residue_chains_have_at_most_n_choose_2_plus_one_bases(spec):
    """Each contraction shrinks the support of the target vector by one, so
    a chain over a ring of odd residue characteristic has at most
    n(n-1)/2 + 1 bases, on diagonal and non-diagonal Gram matrices."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 6)
    for n in (2, 3, 4, 5, 6, 8):
        for make_space in (random_diagonal_space, _random_congruent_space):
            S = make_space(ring, n, rng)
            for _ in range(3):
                b, c = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
                assert len(chain_local(b, c)) <= n * (n - 1) // 2 + 1, (n, make_space)


def _gf5_orthogonal_bases_up_to_sign(diag):
    """Every orthogonal basis of the diagonal form ``diag`` on GF(5)^3, as
    sorted integer triples, each vector with first nonzero entry 1 or 2."""

    def b(u, v):
        return sum(d * x * y for d, x, y in zip(diag, u, v)) % 5

    lines = [v for v in itertools.product(range(5), repeat=3)
             if next((x for x in v if x), 0) in (1, 2) and b(v, v)]
    return [t for t in itertools.combinations(lines, 3)
            if not (b(t[0], t[1]) or b(t[0], t[2]) or b(t[1], t[2]))]


def test_every_gf5_n3_diagonal_basis_is_reached_within_the_bound():
    """From the standard basis to every orthogonal basis, up to sign, of
    every diagonal form over GF(5) at n = 3: at most 3 * 2 / 2 + 1 bases."""
    F5 = parse_ring("GF(5)")
    reached = 0
    for diag in itertools.product(range(1, 5), repeat=3):
        S = BilinearSpace.diagonal(F5, tuple(map(F5.from_int, diag)))
        E = standard_basis(S)
        for t in _gf5_orthogonal_bases_up_to_sign(diag):
            target = OrthogonalBasis(S, [tuple(map(F5.from_int, v)) for v in t])
            assert len(chain_local(E, target)) <= 4, (diag, t)
            reached += 1
    # 1280 orthogonal bases per form, as all_orthogonal_bases counts them,
    # in classes of 2^3 sign choices
    assert reached == 64 * 160


@pytest.mark.parametrize("spec", MATRIX_SPECS + F2_RESIDUE_SPECS)
def test_chains_in_dimension_at_most_2_take_one_step(spec):
    """Consecutive bases of dimension <= 2 may differ in every vector, so a
    chain there is one step on every route."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 7)
    for n in (1, 2):
        for _ in range(10):
            S = random_diagonal_space(ring, n, rng)
            b, c = random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)
            assert len(chain_local(b, c)) <= 2


# ---------------------------------------------------------------------------
# field chains
# ---------------------------------------------------------------------------


def test_chain_field_n2_single_step():
    F3 = parse_ring("GF(3)")
    S = ident_space(F3, 2)
    B = standard_basis(S)
    one = F3.one
    two = F3.from_int(2)
    C = OrthogonalBasis(S, ((one, one), (one, two)))
    chain = chain_field(B, C)
    assert len(chain) <= 2
    ok, msg = verify_chain(chain, B, C)
    assert ok, msg


def test_chain_field_f4_e_to_hat():
    F4 = parse_ring("GF(4)")
    S = ident_space(F4, 4)
    e = standard_basis(S)
    hat = hat_basis(S)
    chain = chain_field(e, hat)
    ok, msg = verify_chain(chain, e, hat)
    assert ok, msg


def test_chain_field_f2_counterexample():
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, 4)
    with pytest.raises(ChainUnreachableError):
        chain_field(standard_basis(S), hat_basis(S))


def test_chain_field_matrix_random():
    rng = seeded(23)
    for spec in MATRIX_SPECS:
        ring = parse_ring(spec)
        if not ring.is_field:
            continue
        for n in (3, 4, 5):
            for _ in range(3):
                S = random_diagonal_space(ring, n, rng)
                A = standard_basis(S)
                B = random_orthogonal_basis(S, rng)
                chain = chain_field(A, B)
                ok, msg = verify_chain(chain, A, B)
                assert ok, msg


# ---------------------------------------------------------------------------
# the contraction loop against a reference on elements, in every dimension
# >= 3, which evaluates every q-value and coordinate afresh
# ---------------------------------------------------------------------------


def _ref_support(coords):
    return [i for i, c in enumerate(coords) if not c.is_zero()]


def _ref_coords_in(space, basis, z):
    return [space.eval_b(z, u) * space.eval_q(u).inv() for u in basis]


def _ref_complement_in_plane(space, z, p, q):
    return vec_add(vec_scale(space.eval_b(q, z), p), vec_scale(-space.eval_b(p, z), q))


def _ref_field_chain_core(space, tup_a, tup_b):
    if frozenset(tup_a) == frozenset(tup_b):
        return [tup_a]
    k = len(tup_a)
    if k <= 2:
        return [tup_a, tup_b]
    return _ref_field_chain_odd(space, tup_a, tup_b)


def _ref_front_and_recurse(space, steps, cur, tup_b):
    pos = cur.index(tup_b[0])
    arranged = (cur[pos],) + cur[:pos] + cur[pos + 1:]
    sub = _ref_field_chain_core(space, arranged[1:], tup_b[1:])
    for t in sub[1:]:
        steps.append((tup_b[0],) + t)
    return steps


def _ref_replace(cur, i, j, z, s):
    work = list(cur)
    work[i], work[j] = z, s
    return tuple(work)


def _ref_field_chain_odd(space, tup_a, tup_b):
    """One level, then the recursion.  Where no pair contracts (residue
    characteristic 2 only), the first support vector is rotated with the
    first vector outside the support, and the two rotated positions are not
    paired with each other while other support remains."""
    steps = [tup_a]
    cur = tup_a
    w1 = tup_b[0]
    held = None
    while True:
        coords = _ref_coords_in(space, cur, w1)
        supp = _ref_support(coords)
        r = len(supp)
        if r == 1:
            i = supp[0]
            if cur[i] != w1:
                work = list(cur)
                work[i] = w1
                cur = tuple(work)
                steps.append(cur)
            return _ref_front_and_recurse(space, steps, cur, tup_b)
        if r == 2:
            i, j = supp
            s = _ref_complement_in_plane(space, w1, cur[i], cur[j])
            cur = _ref_replace(cur, i, j, w1, s)
            steps.append(cur)
            return _ref_front_and_recurse(space, steps, cur, tup_b)
        pair = None
        for i, j in itertools.combinations(supp, 2):
            z = vec_add(vec_scale(coords[i], cur[i]), vec_scale(coords[j], cur[j]))
            if space.eval_q(z).is_unit() and {i, j} != held:
                pair = (i, j, z)
                break
        if pair is None:
            assert held is None
            i = supp[0]
            k = next(k for k in range(len(cur)) if coords[k].is_zero())
            for lam in space.ring.units():
                z = vec_add(cur[i], vec_scale(lam, cur[k]))
                if space.eval_q(z).is_unit():
                    break
            s = _ref_complement_in_plane(space, z, cur[i], cur[k])
            cur = _ref_replace(cur, i, k, z, s)
            held = {i, k}
            steps.append(cur)
            continue
        i, j, z = pair
        s = _ref_complement_in_plane(space, z, cur[i], cur[j])
        cur = _ref_replace(cur, i, j, z, s)
        if held is not None:
            (other,) = held - {i, j}
            held = {i, other}
        steps.append(cur)


@pytest.mark.parametrize(
    "spec",
    ["GF(3)", "GF(5)", "GF(7)", "GF(9)", "GF(4)", "GF(8)", "GF(16)",
     "Z/9", "Z/25", "Z/27", "GF(3)[x]/(x^2)", "GF(5)[x]/(x^2)", "GF(3)[x]/(x^3)",
     "GF(4)[y]/(y^2)"],
)
def test_contraction_loop_matches_per_characteristic_loops(spec):
    """Step for step, on fields and on rings whose residue field is not
    F_2, all of which take the loop over R itself.  The reference evaluates
    every q-value and coordinate afresh, so it also checks the carried
    ones, the rotation's closed forms among them; in characteristic 2,
    e -> e-hat at even n forces the rotation."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    pairs = []
    for n in (3, 4, 5, 6):
        for _ in range(4):
            S = random_diagonal_space(ring, n, rng)
            pairs.append((S, random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)))
        if ring.size % 2 == 0 and n % 2 == 0:
            S = ident_space(ring, n)
            pairs.append((S, standard_basis(S), hat_basis(S)))
    for S, A, B in pairs:
        got = chains._chain_core(S, A.indices, B.indices)
        assert [_els(ring, t) for t in got] == _ref_field_chain_core(S, A.vectors, B.vectors)


@pytest.mark.parametrize(
    "spec",
    ["GF(3)", "GF(5)", "GF(9)", "Z/9", "Z/25", "Z/27", "GF(3)[x]/(x^2)", "GF(4)", "GF(8)",
     "GF(4)[y]/(y^2)"],
)
def test_contraction_loop_evaluates_b_only_for_data_it_does_not_carry(spec, monkeypatch):
    """The loop carries the q-values of its tuple and the coordinates of the
    target vector, so a chain evaluates b at most n + sum_{k=3..n} k times:
    n q-values once and k coordinates per level of dimension k >= 3, on
    every ring, a rotation included.  ``chain_local`` from a start judged
    when it was made takes its q-values from the checker: n evaluations
    fewer than from an unjudged ``_of`` copy, and the same chain."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 7)
    pairs = []
    for n in range(3, 9):
        for make_space in (random_diagonal_space, _random_congruent_space):
            S = make_space(ring, n, rng)
            for _ in range(2):
                pairs.append((S, random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng)))
    calls = []

    def counted(space, x, y):
        calls.append(None)
        return certify._b(space, x, y)

    monkeypatch.setattr(chains, "_b", counted)
    for S, A, B in pairs:
        n = S.n
        calls.clear()
        chains._chain_core(S, A.indices, B.indices)
        assert len(calls) <= n + sum(range(3, n + 1)), (n, len(calls))
        calls.clear()
        unjudged = chain_local(OrthogonalBasis._of(S, A.indices), B).to_json()
        count = len(calls)
        calls.clear()
        assert chain_local(A, B).to_json() == unjudged
        assert len(calls) == count - (0 if set(A.indices) == set(B.indices) else n)


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)", "GF(4)[y]/(y^2)", "GF(16)"])
def test_char2_chains_never_search_for_a_nonvanishing_vector(spec, monkeypatch):
    """Every dimension takes the contraction loop in characteristic 2, so a
    chain is built with every nonvanishing-vector search in ``chains``
    disabled."""

    def disabled(*args, **kwargs):
        raise AssertionError("a chain builder searched for a nonvanishing vector")

    for name in dir(chains):
        if "nonvanishing" in name:
            monkeypatch.setattr(chains, name, disabled)
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    for n in (3, 4, 5):
        S = random_diagonal_space(ring, n, rng)
        chain_local(random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng))


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)"])
def test_dimension_3_char2_contraction_on_all_basis_pairs(spec):
    """The contraction loop joins every ordered pair of orthogonal bases of
    <1,1,1> over GF(4) (all 270 bases), and over GF(8) every ordered pair
    of a fixed sample of 40 bases, by a chain ``verify_chain`` accepts, of
    at most 3 * 2 / 2 + 1 = 4 bases: no rotation runs in dimension 3.

    ``verify_chain`` checks each basis, each consecutive overlap and the
    two endpoints, so a chain passes exactly when its endpoints hold the
    vectors of A and B and ``verify_chain`` accepts each of its windows
    of two bases (its one basis, if it has no step).  The chains share
    most of their windows, so each distinct window is checked once."""
    field = parse_ring(spec)
    S = ident_space(field, 3)
    if field.size == 4:
        bases = [OrthogonalBasis._of(S, tuple(sorted(_idx(b)))) for b in all_orthogonal_bases(S)]
        assert len(bases) == 270
    else:
        rng = seeded(8)
        bases = [random_orthogonal_basis(S, rng) for _ in range(40)]
    verdicts = {}

    def verified(window):
        if window not in verdicts:
            chain = Chain(S, [OrthogonalBasis._of(S, t) for t in window])
            verdicts[window] = verify_chain(chain, chain.bases[0], chain.bases[-1])
        return verdicts[window]

    for A, B in itertools.product(bases, repeat=2):
        steps = chains._chain_core(S, A.indices, B.indices)
        assert set(steps[0]) == set(A.indices) and set(steps[-1]) == set(B.indices), (A, B)
        assert len(steps) <= 4, (A, B)
        for window in zip(steps, steps[1:]) if len(steps) > 1 else [(steps[0],)]:
            ok, msg = verified(window)
            assert ok, (A, B, window, msg)


# ---------------------------------------------------------------------------
# element chains, nonvanishing vectors, hat chains
# ---------------------------------------------------------------------------


def test_extend_vector_chain_trivial():
    F4 = parse_ring("GF(4)")
    S = ident_space(F4, 4)
    e = standard_basis(S)
    chain, basis = extend_vector_chain(e, (F4.one, F4.zero, F4.zero, F4.zero))
    assert len(chain) == 1
    assert basis.vector_set() == e.vector_set()


def test_extend_vector_chain_paper_step():
    F4 = parse_ring("GF(4)")
    alpha = F4.element_from_json([0, 1])
    beta = F4.one + alpha
    S = ident_space(F4, 4)
    e = standard_basis(S)
    chain, basis = extend_vector_chain(e, (alpha, beta, F4.zero, F4.zero))
    assert len(chain) == 2
    ev = S.standard_basis()
    expected_first = vec_add(tuple(alpha * c for c in ev[0]), tuple(beta * c for c in ev[1]))
    expected_second = vec_add(tuple(beta * c for c in ev[0]), tuple(alpha * c for c in ev[1]))
    assert basis.vectors[0] == expected_first
    assert expected_second in basis.vector_set()


def test_extend_vector_chain_f5():
    F5 = parse_ring("GF(5)")
    S = BilinearSpace.diagonal(F5, (F5.one, F5.from_int(2), F5.one))
    e = standard_basis(S)
    chain, basis = extend_vector_chain(e, (F5.one, F5.one, F5.one))
    ok, msg = verify_chain(chain, e, basis)
    assert ok, msg
    total = vec_add(vec_add(e.vectors[0], e.vectors[1]), e.vectors[2])
    assert basis.vectors[0] == total


def test_extend_vector_chain_isotropic_partial_sum():
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, 3)
    e = standard_basis(S)
    with pytest.raises(IsotropicPartialSumError) as info:
        extend_vector_chain(e, (F2.one, F2.one, F2.zero))
    assert info.value.r == 2


def test_find_nonvanishing_single_form():
    F2 = parse_ring("GF(2)")
    v = find_nonvanishing_vector(F2, [(F2.one, F2.zero, F2.zero)])
    assert v == (F2.one, F2.zero, F2.zero)


def test_find_nonvanishing_two_forms_f4():
    F4 = parse_ring("GF(4)")
    forms = [(F4.one, F4.zero), (F4.one, F4.one)]
    v = find_nonvanishing_vector(F4, forms)
    assert not (v[0] * v[0]).is_zero()
    assert not (v[0] * v[0] + v[1] * v[1]).is_zero()
    # brute force: solutions do exist, and the returned one is among them
    sols = [
        (x, y)
        for x in F4.elements()
        for y in F4.elements()
        if not (x * x).is_zero() and not (x * x + y * y).is_zero()
    ]
    assert v in sols


def test_find_nonvanishing_field_too_small():
    F2 = parse_ring("GF(2)")
    one, zero = F2.one, F2.zero
    forms = [(one, zero), (zero, one), (one, one)]
    with pytest.raises(FieldTooSmallError):
        find_nonvanishing_vector(F2, forms)


@pytest.mark.parametrize("n,spec", [(4, "GF(4)"), (4, "GF(8)"), (6, "GF(4)")])
def test_hat_chain(n, spec):
    field = parse_ring(spec)
    chain = hat_chain(n, field)
    S = chain.space
    ok, msg = verify_chain(chain, standard_basis(S), hat_basis(S))
    assert ok, msg


def test_hat_chain_bad_parameters():
    from wittlab.chains import BadParametersError

    with pytest.raises(BadParametersError):
        hat_chain(3, parse_ring("GF(4)"))
    with pytest.raises(BadParametersError):
        hat_chain(4, parse_ring("GF(2)"))
    with pytest.raises(BadParametersError):
        hat_chain(4, parse_ring("GF(5)"))


# ---------------------------------------------------------------------------
# BFS oracle
# ---------------------------------------------------------------------------


def test_bfs_f2_dim3_component():
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, 3)
    e = standard_basis(S)
    bases = all_orthogonal_bases(S)
    assert len(bases) == 1
    assert bases[0] == e.vector_set()


def test_bfs_f2_dim4_unreachable():
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, 4)
    res = bfs_chain_oracle(standard_basis(S), hat_basis(S))
    assert res.status == "unreachable"
    assert len(res.component) == 1


def test_bfs_f3_dim2_found():
    F3 = parse_ring("GF(3)")
    S = ident_space(F3, 2)
    B = standard_basis(S)
    one = F3.one
    two = F3.from_int(2)
    C = OrthogonalBasis(S, ((one, one), (one, two)))
    res = bfs_chain_oracle(B, C)
    assert res.status == "found"
    ok, msg = verify_chain(res.chain, B, C)
    assert ok, msg


def test_bfs_space_cap():
    from wittlab import BudgetExceededError

    F9 = parse_ring("GF(9)")
    S = ident_space(F9, 6)
    with pytest.raises(BudgetExceededError):
        bfs_chain_oracle(standard_basis(S), standard_basis(S))


def test_bfs_budget_counts_candidate_vectors(monkeypatch):
    """A node over Z/16 at n = 4 forms 4 * 8 + 6 * 16^2 = 1568 candidate
    vectors, so a budget of 5,000 candidates ends the search at its fourth
    node; as many nodes would take minutes.  The residue bases of e and
    the lifted hat basis differ as sets, so no chain joins them."""
    monkeypatch.setattr(chains, "BFS_CANDIDATE_BUDGET", 5_000)
    S = ident_space(parse_ring("Z/16"), 4)
    assert S.ring.size ** S.n == bilinear.SEARCH_SPACE_CAP
    E, H = standard_basis(S), lifted_hat_basis(S)
    began = time.perf_counter()
    res = bfs_chain_oracle(E, H)
    assert time.perf_counter() - began < 1.0
    assert (res.status, res.explored, res.chain) == ("budget", 4, None)


def test_one_search_space_cap_limits_every_search(monkeypatch):
    """Setting bilinear.SEARCH_SPACE_CAP reaches all three exhaustive
    searches: above it the isometry search answers "unknown" without
    enumerating R^n, and the other two raise BudgetExceededError."""
    from wittlab import BudgetExceededError, is_isometric, rings

    monkeypatch.setattr(rings, "_parse_cache", {})
    monkeypatch.setattr(bilinear, "SEARCH_SPACE_CAP", 8)
    S = ident_space(parse_ring("GF(3)"), 2)
    assert S.ring.size ** S.n > bilinear.SEARCH_SPACE_CAP
    assert is_isometric(S, S).status == "unknown"
    assert not any(key[0] == "vectors" for key in S.ring._state if isinstance(key, tuple))
    with pytest.raises(BudgetExceededError, match="exceeds the search space cap 8"):
        all_orthogonal_bases(S)
    with pytest.raises(BudgetExceededError, match="exceeds the search space cap 8"):
        bfs_chain_oracle(standard_basis(S), standard_basis(S))
    # at the cap the search runs, on one enumeration of R^n per ring
    monkeypatch.setattr(bilinear, "SEARCH_SPACE_CAP", 9)
    H = BilinearSpace.hyperbolic(S.ring)
    assert is_isometric(S, S).status == is_isometric(H, H).status == "isometric"
    shared = {id(v) for v in S.ring._state[("vectors", 2)]}
    for space in (S, H):
        assert {id(v) for vs in space._vectors_by_q().values() for v in vs} == shared
    assert len(shared) == 9


def test_bases_on_different_spaces_are_rejected():
    F3 = parse_ring("GF(3)")
    zero, one, two = F3.zero, F3.one, F3.from_int(2)
    S112 = BilinearSpace.diagonal(F3, (one, one, two))
    C112 = OrthogonalBasis(S112, ((one, one, zero), (one, two, one), (one, two, two)))
    E11 = standard_basis(ident_space(F3, 2))
    E12 = standard_basis(BilinearSpace.diagonal(F3, (one, two)))
    # the second pair has the same index tuples on both sides
    for b, c in ((standard_basis(ident_space(F3, 3)), C112), (E11, E12)):
        with pytest.raises(ChainError, match="bases live on different spaces"):
            bfs_chain_oracle(b, c)
    single = Chain(E11.space, [E11])
    assert verify_chain(single, E11, E12) == (False, "chain does not end at the requested basis")
    assert verify_chain(single, E12, E11) == (False, "chain does not start at the requested basis")


def _ref_node_key(node):
    return tuple(sorted(tuple(c.data for c in v) for v in node))


def _ref_bfs_neighbors(space, node):
    """The former neighbour generator on elements: chains._bfs_neighbors
    plus its guards for an empty kept set, a repeated z1, z2 == z1 and a
    replacement that collides with a kept vector."""
    ring = space.ring
    vectors = tuple(sorted(node, key=lambda v: tuple(c.data for c in v)))
    n = len(vectors)
    units = ring.units()
    out = []
    for i in range(n):
        kept = vectors[:i] + vectors[i + 1:]
        g = orthogonal_complement(space, kept)[0]
        if not space.eval_q(g).is_unit():
            continue
        for u in units:
            nxt = frozenset(kept) | {vec_scale(u, g)}
            if nxt != node:
                out.append(nxt)
    elems = tuple(ring.elements())
    for i, j in itertools.combinations(range(n), 2):
        kept = tuple(v for k, v in enumerate(vectors) if k not in (i, j))
        comp = orthogonal_complement(space, kept) if kept else space.standard_basis()
        g1, g2 = comp[0], comp[1]
        seen_z1 = set()
        for c1 in elems:
            for c2 in elems:
                z1 = vec_add(vec_scale(c1, g1), vec_scale(c2, g2))
                if z1 in seen_z1:
                    continue
                seen_z1.add(z1)
                if not space.eval_q(z1).is_unit():
                    continue
                gp = _ref_complement_in_plane(space, z1, g1, g2)
                if not space.eval_q(gp).is_unit():
                    continue
                for u in units:
                    z2 = vec_scale(u, gp)
                    if z2 == z1:
                        continue
                    nxt = frozenset(kept) | {z1, z2}
                    if len(nxt) == n and nxt != node:
                        out.append(nxt)
    return sorted(set(out), key=_ref_node_key)


@pytest.mark.parametrize("spec", ["GF(2)", "Z/4", "GF(2)[x]/(x^2)", "GF(3)", "Z/8"])
def test_bfs_neighbors_match_guarded_generator(spec):
    """Neighbour lists of the first nodes a BFS reaches from a random basis
    of a random diagonal space, n = 3 (n = 2 over Z/8)."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    S = random_diagonal_space(ring, 2 if ring.size > 4 else 3, rng)
    frontier = [frozenset(random_orthogonal_basis(S, rng).indices)]
    seen = set(frontier)
    checked = 0
    while frontier and checked < 12:
        node = frontier.pop(0)
        got = chains._bfs_neighbors(S, node)
        assert [frozenset(_els(ring, nxt)) for nxt in got] == _ref_bfs_neighbors(
            S, frozenset(_els(ring, node))
        )
        checked += 1
        for nxt in got:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert checked >= 1


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)", "GF(16)"])
def test_hat_core_coefficients_are_the_first_two_units(spec):
    """units() of a field of characteristic 2 starts with 1, and its first
    pair of units with a nonzero sum is units()[:2].  So on two vectors of
    equal q-value, as in e -> e-hat, the contraction loop's rotation takes
    lambda = units()[1]: q_i + lambda^2 q_k = q_i (1 + lambda)^2."""
    field = parse_ring(spec)
    units = field.units()
    first = next((a, b) for a in units for b in units if not (a + b).is_zero())
    assert first == units[:2] and units[0] == field.one


# ---------------------------------------------------------------------------
# chain_local: the top-level entry point
# ---------------------------------------------------------------------------


def test_chain_local_identity():
    Z9 = parse_ring("Z/9")
    B = standard_basis(ident_space(Z9, 3))
    chain = chain_local(B, B)
    assert len(chain) == 1


def test_chain_local_residue_f2_fallback():
    Z4 = parse_ring("Z/4")
    S = ident_space(Z4, 2)
    B = standard_basis(S)
    C = elementary_move(B, Z4.from_int(2), 0, 1)
    chain = chain_local(B, C)
    ok, msg = verify_chain(chain, B, C)
    assert ok, msg


def test_chain_local_counterexample_unreachable():
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, 4)
    with pytest.raises(ChainUnreachableError):
        chain_local(standard_basis(S), hat_basis(S))


def test_chain_local_reduction_is_field_chain():
    rng = seeded(40)
    Z27 = parse_ring("Z/27")
    S = random_diagonal_space(Z27, 3, rng)
    A = standard_basis(S)
    B = random_orthogonal_basis(S, rng)
    chain = chain_local(A, B)
    rspace = S.reduce()
    reduced = Chain(
        rspace,
        [OrthogonalBasis(rspace, [S.reduce_vector(v) for v in basis.vectors])
         for basis in chain.bases],
    )
    ok, msg = verify_chain(reduced, chain.bases[0].reduce(), chain.bases[-1].reduce())
    assert ok, msg


def test_chain_local_joins_a_residue_f2_pair_mod_m():
    """The residue bases agree as sets, so an equal-mod-m chain joins them,
    found without a search over R^n."""
    A, B = residue_f2_pair()
    chain = chain_local(A, B)
    ok, msg = verify_chain(chain, A, B)
    assert ok, msg


@pytest.mark.parametrize("spec", ["Z/4", "Z/8", "Z/16", "GF(2)[x]/(x^2)", "GF(2)[x]/(x^4)"])
def test_chain_local_lifted_counterexample_is_unreachable(spec):
    """The F_2 counterexample lifted to R: the residue bases differ as sets,
    and over F_2 every basis is alone in its component."""
    S = ident_space(parse_ring(spec), 4)
    E, H = standard_basis(S), lifted_hat_basis(S)
    start = time.perf_counter()
    for b, c in ((E, H), (H, E)):
        with pytest.raises(ChainUnreachableError, match="different chain components over F_2"):
            chain_local(b, c)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("spec", ["GF(2)", "Z/4"])
def test_chain_local_is_exact_over_residue_f2_above_the_bfs_space_cap(spec):
    """<1>^18 has |R|^n above the search space cap; the residue bases of e
    and the lifted hat basis differ as sets, which proves unreachability."""
    S = ident_space(parse_ring(spec), 18)
    assert S.ring.size ** S.n > bilinear.SEARCH_SPACE_CAP
    E, H = standard_basis(S), lifted_hat_basis(S)
    for b, c in ((E, H), (H, E)):
        with pytest.raises(ChainUnreachableError, match="different chain components over F_2"):
            chain_local(b, c)


@pytest.mark.parametrize("spec", ["Z/4", "GF(2)[x]/(x^2)", "GF(2)[x]/(x^4)"])
def test_chain_local_and_chain_field_never_search(spec, monkeypatch):
    def no_search(space, *args):
        pytest.fail(f"BFS over {space.ring.spec}^{space.n}")

    monkeypatch.setattr(chains, "_bfs_core", no_search)
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    unreachable = 0
    for n in (2, 3, 4):
        S = random_diagonal_space(ring, n, rng)
        pairs = [(random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng))
                 for _ in range(6)]
        if n == 4:  # the lifted counterexample
            I = ident_space(ring, 4)
            pairs.append((standard_basis(I), lifted_hat_basis(I)))
        for A, B in pairs:
            for build, b, c in ((chain_local, A, B), (chain_field, A.reduce(), B.reduce())):
                try:
                    chain = build(b, c)
                except ChainUnreachableError:
                    unreachable += 1
                    continue
                ok, msg = verify_chain(chain, b, c)
                assert ok, msg
    assert unreachable


@pytest.mark.parametrize("n, count", [(3, 1), (4, 2), (5, 6), (6, 32)])
def test_every_orthogonal_basis_over_f2_is_its_own_component(n, count):
    """The fact the F_2 route rests on: orthogonal u, v with q = 1 are the
    only anisotropic vectors of their plane, so no step changes a basis
    set.  (n = 7, 288 bases, holds too but takes seconds.)"""
    F2 = parse_ring("GF(2)")
    S = ident_space(F2, n)
    nodes = [frozenset(_idx(b)) for b in all_orthogonal_bases(S)]
    assert len(nodes) == count
    for node in nodes:
        assert set(chains._bfs_neighbors(S, node)) <= {node}
    bases = [OrthogonalBasis(S, _els(F2, sorted(node))) for node in nodes]
    # a one-basis component is unreachable from every other basis
    for b, c in zip(bases, bases[1:] + bases[:1]):
        if b != c:
            res = bfs_chain_oracle(b, c)
            assert res.status == "unreachable"
            assert res.component == (b.vector_set(),)
    for b, c in itertools.permutations(bases, 2):
        with pytest.raises(ChainUnreachableError, match="different chain components over F_2"):
            chain_field(b, c)


def _components(space, nodes):
    """The root of each node's component, by exhaustive search with the
    BFS oracle's neighbour generator."""
    root = {}
    for start in nodes:
        if start in root:
            continue
        root[start] = start
        stack = [start]
        while stack:
            for nxt in chains._bfs_neighbors(space, stack.pop()):
                if nxt not in root:
                    root[nxt] = start
                    stack.append(nxt)
    return root


def _blocks(nodes, key):
    blocks: dict = {}
    for node in nodes:
        blocks.setdefault(key(node), set()).add(node)
    return {frozenset(b) for b in blocks.values()}


@pytest.mark.parametrize("spec", ["Z/4", "GF(2)[x]/(x^2)"])
@pytest.mark.parametrize("n", [3, 4])
def test_components_over_residue_f2_are_residue_components(spec, n):
    """Chain components over R are the preimages of chain components over
    F_2, which makes the residue route's "unreachable" exact."""
    ring = parse_ring(spec)
    S = ident_space(ring, n)
    nodes = [frozenset(_idx(b)) for b in all_orthogonal_bases(S)]
    root = _components(S, nodes)
    assert set(root) == set(nodes)
    F = S.reduce()
    residue_root = _components(F, [frozenset(_idx(b)) for b in all_orthogonal_bases(F)])

    def residue_component(node):
        return residue_root[frozenset(tuple(ring.residue_of[d] for d in v) for v in node)]

    assert _blocks(nodes, root.get) == _blocks(nodes, residue_component)
    if n == 4:
        assert sorted(map(len, _blocks(nodes, root.get))) == [1024, 1024]


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_chain_local_randomized_per_ring(spec):
    # 500 verified instances per ring across dimensions 2..4
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    per_dim = 500 // 3 + 1
    for n in (2, 3, 4):
        for _ in range(per_dim):
            S = random_diagonal_space(ring, n, rng)
            A = random_orthogonal_basis(S, rng)
            B = random_orthogonal_basis(S, rng)
            chain = chain_local(A, B)
            ok, msg = verify_chain(chain, A, B)
            assert ok, msg


def test_chain_certificate_json_round_trip():
    rng = seeded(3)
    Z9 = parse_ring("Z/9")
    S = random_diagonal_space(Z9, 3, rng)
    A = standard_basis(S)
    B = random_orthogonal_basis(S, rng)
    chain = chain_local(A, B)
    cert = chain.to_json()
    back = Chain.from_json(cert)
    ok, msg = verify_chain(back, back.bases[0], back.bases[-1])
    assert ok, msg
    assert back.bases[0].vector_set() == A.vector_set()


def _per_basis_json(chain):
    """The certificate assembled basis by basis, with fresh lists everywhere."""
    return {
        "ring": chain.space.ring.spec,
        "gram": chain.space.to_json(),
        "bases": [b.to_json() for b in chain.bases],
    }


def _clear_lists(obj):
    """Empty every list in a JSON value, innermost first."""
    if isinstance(obj, dict):
        for value in obj.values():
            _clear_lists(value)
    elif isinstance(obj, list):
        for value in obj:
            _clear_lists(value)
        obj.clear()


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_certificate_json_shares_vectors_and_keeps_its_text(spec):
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 1)
    for n in (3, 4):
        S = random_diagonal_space(ring, n, rng)
        chain = chain_local(random_orthogonal_basis(S, rng), random_orthogonal_basis(S, rng))
        text = json.dumps(_per_basis_json(chain))
        doc, other = chain.to_json(), chain.to_json()
        assert json.dumps(doc) == text

        # one list per distinct vector, reused by every basis that holds it
        distinct = {v for b in chain.bases for v in b.vectors}
        assert len({id(v) for b in doc["bases"] for v in b}) == len(distinct)

        back = Chain.from_json(doc)
        assert back.space == chain.space
        assert [b.vectors for b in back.bases] == [b.vectors for b in chain.bases]

        # documents from separate calls share nothing
        _clear_lists(doc)
        assert json.dumps(other) == text
        assert json.dumps(chain.to_json()) == text


def _reference_json(chain):
    """The certificate written from the elements of each basis."""
    return {
        "ring": chain.space.ring.spec,
        "gram": [[e.to_json() for e in row] for row in chain.space.gram],
        "bases": [[[c.to_json() for c in v] for v in b.vectors] for b in chain.bases],
    }


def _built_chains(spec):
    """Chains over one ring, n = 2, 3, 4: chain_local where the residue
    field is not F_2, equal-mod-m chains between a basis and elementary
    moves of it where it is."""
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()) + 2)
    ideal = ring.maximal_ideal()
    for n in (2, 3, 4):
        S = random_diagonal_space(ring, n, rng)
        A = random_orthogonal_basis(S, rng)
        if ring.residue_field().size > 2:
            yield chain_local(A, random_orthogonal_basis(S, rng))
            continue
        B = A
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            B = elementary_move(B, ideal[rng.randrange(len(ideal))], i, j)
        yield chain_equal_mod_m(A, B)


@pytest.mark.parametrize("spec", MATRIX_SPECS + F2_RESIDUE_SPECS)
def test_certificate_json_from_indices_equals_json_from_elements(spec):
    lengths = []
    for chain in _built_chains(spec):
        doc = chain.to_json()
        assert doc == _reference_json(chain)
        assert json.dumps(doc) == json.dumps(_reference_json(chain))
        lengths.append(len(chain))
    assert max(lengths) > 1 or parse_ring(spec).size == 2, lengths


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("chain_*.json")))
def test_golden_certificates_round_trip_byte_identically(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["certificate"] = Chain.from_json(doc["certificate"]).to_json()
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


# GF(4) in the benchmark checker's grammar: its elements are coded as the
# same coefficient lists over F_2
_RINGCHECK_SPELLING = {"GF(4)": "GF(2)[x]/(x^2+x+1)"}


@pytest.mark.parametrize(
    "name", ["chain_z9_n4.json", "chain_gf4y2_n4.json", "chain_f4_hat_n4.json"]
)
def test_golden_lifted_certificates_pass_verify_and_the_bench_checker(name, capsys):
    """The golden certificates over Z/9 and GF(4)[y]/(y^2), and the
    characteristic-2 field chain e -> e-hat, pass ``witt-lab verify`` and
    the benchmark's independent checker, against the endpoints their
    command was given."""
    path = GOLDEN / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    config, certificate = doc["config"], doc["certificate"]
    assert certificate["ring"] == config["ring"]
    spec = _RINGCHECK_SPELLING.get(config["ring"], config["ring"])
    if spec != config["ring"]:
        certificate = dict(certificate, ring=spec)
    ring = ringcheck.Ring(spec)
    gram, start, end = (
        ring.mat_from_json(json.loads(config[key])) for key in ("gram", "from-basis", "to-basis")
    )
    ringcheck.check_chain_certificate(ring, gram, start, end, certificate)
    assert run(["verify", "--cert", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


_F4_ENTRIES = ([], [1], [0, 1], [1, 1])
_FOREIGN_VALUES = ("a", True, 1.5, [[1]])


def _f4_certificate_mutants(count, seed):
    """``count`` seeded single mutations of the paper's F_4 certificate, as
    JSON text: one coefficient list changed, a vector dropped or repeated,
    a basis dropped or two swapped, a foreign JSON value as an entry or
    inside one, or another ring named."""
    rng = seeded(seed)
    kinds = ("entry", "drop vector", "repeat vector", "drop basis", "swap bases",
             "foreign value", "ring")
    mutants = []
    for _ in range(count):
        cert = json.loads(json.dumps(f4_chain_certificate()))
        bases = cert["bases"]
        b = rng.randrange(len(bases))
        basis = bases[b]
        v, e = rng.randrange(len(basis)), rng.randrange(4)
        kind = rng.choice(kinds)
        if kind == "entry":
            basis[v][e] = rng.choice([c for c in _F4_ENTRIES if c != basis[v][e]])
        elif kind == "drop vector":
            del basis[v]
        elif kind == "repeat vector":  # in place of another vector, or beside it
            if rng.random() < 0.5:
                basis[rng.choice([w for w in range(len(basis)) if w != v])] = basis[v]
            else:
                basis.insert(rng.randrange(len(basis) + 1), basis[v])
        elif kind == "drop basis":
            del bases[b]
        elif kind == "swap bases":
            c = rng.choice([k for k in range(len(bases)) if k != b])
            bases[b], bases[c] = bases[c], bases[b]
        elif kind == "foreign value":
            bad = rng.choice(_FOREIGN_VALUES)
            basis[v][e] = bad if rng.random() < 0.5 else [bad] + basis[v][e][1:]
        else:
            cert["ring"] = rng.choice(("GF(2)", "GF(8)", "Z/4"))
        mutants.append(json.dumps(cert))
    return mutants


def _endpoint_forms(ring, space, vectors):
    """An endpoint given as JSON vectors, as an unjudged ``_of`` basis and,
    where it passes the check, as a basis judged on ``space``; [] when its
    entries do not decode in ``ring``."""
    try:
        vectors = [tuple(ring.element_from_json(c) for c in v) for v in vectors]
    except RingError:
        return []
    forms = [OrthogonalBasis._of(space, _idx(vectors))]
    try:
        forms.append(OrthogonalBasis(space, vectors))
    except ChainError:
        pass
    return forms


def test_verify_cli_on_mutants_of_the_paper_certificate(capsys):
    """300 single mutations of the paper's F_4 certificate through
    ``witt-lab verify``: each exits 0, 1 or 2 with one JSON object on
    stdout and no traceback, and each verdict (exit 0 or 1) is the full
    check's on the decoded chain between its own first and last bases.
    ``verify_chain`` on each decoded chain gives the full check's verdict
    too, between its own end bases and between those of the paper's
    certificate, each as ``_of`` and as judged bases."""
    paper_bases = f4_chain_certificate()["bases"]
    codes = set()
    judged = 0
    for k, text in enumerate(_f4_certificate_mutants(300, 8)):
        code = run(["verify", "--cert", text])
        out = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in out.err, (k, text, out.err)
        data = json.loads(out.out)  # one JSON value, nothing after it
        assert isinstance(data, dict), (k, text)
        codes.add(code)
        if code == 2:
            assert data["error"], (k, text)
            continue
        cert = json.loads(text)
        chain = Chain.from_json(cert)
        ok, msg = reference_verify(chain, chain.bases[0], chain.bases[-1])
        assert (code, data["valid"], data["diagnostic"]) == (0 if ok else 1, ok, msg), (k, text)
        space, ring = chain.space, chain.space.ring
        for bases in (cert["bases"], paper_bases):
            starts = _endpoint_forms(ring, space, bases[0])
            ends = _endpoint_forms(ring, space, bases[-1])
            if not starts or not ends:
                continue
            expected = _outcome(reference_verify, chain, starts[0], ends[0])
            for start, end in itertools.product(starts, ends):
                assert _outcome(verify_chain, chain, start, end) == expected, (k, text)
            judged += len(starts) + len(ends) - 2
    assert codes == {0, 1, 2}
    assert judged > 300


def test_elements_of_another_ring_raise_at_every_entry_point():
    """An index tuple carries no ring, so each public function that takes
    elements checks their ring when it converts them."""
    Z9, F5, F4 = parse_ring("Z/9"), parse_ring("GF(5)"), parse_ring("GF(4)")
    F7, F8 = parse_ring("GF(7)"), parse_ring("GF(8)")
    S9, S5 = ident_space(Z9, 3), ident_space(F5, 3)
    E9, E5 = standard_basis(S9), standard_basis(S5)

    def foreign(basis, ring):
        return [tuple(ring.element(c.data) for c in v) for v in basis.vectors]

    X9 = OrthogonalBasis(S9, foreign(E9, F7), validate=False)
    X5 = OrthogonalBasis(S5, foreign(E5, F7), validate=False)
    F3 = Z9.residue_field()
    rb = S9.reduce().standard_basis()
    z9_cert = chain_local(E9, random_orthogonal_basis(S9, seeded(3))).to_json()
    calls = [
        lambda: OrthogonalBasis(S9, foreign(E9, F7)),
        lambda: chain_local(E9, X9),
        lambda: chain_local(X9, E9),
        lambda: chain_field(E5, X5),
        lambda: chain_field(X5, E5),
        lambda: chain_equal_mod_m(E9, X9),
        lambda: bfs_chain_oracle(E5, X5),
        lambda: elementary_move(E9, F7.zero, 0, 1),
        lambda: extend_vector_chain(E5, (F5.one, F7.one, F5.zero)),
        lambda: find_nonvanishing_vector(F4, [(F4.one, F8.one)]),
        lambda: lift_basis(S9, E9.vectors),
        lambda: lift_pair(S9, rb, rb[:2] + (tuple(Z9.element(c.data) for c in rb[2]),)),
        lambda: lift_pair(S9, rb, rb[:2] + ((F3.zero, F3.zero, F7.one),)),
        lambda: Chain.from_json(z9_cert, ring=parse_ring("GF(3)[x]/(x^2)")),
        lambda: Chain.from_json(f4_chain_certificate(), ring=Z9),
    ]
    for k, call in enumerate(calls):
        with pytest.raises(RingError):
            call()
            pytest.fail(f"call {k} accepted elements of another ring")


# ---------------------------------------------------------------------------
# trust boundary: one verify_chain per returned chain
# ---------------------------------------------------------------------------


@pytest.fixture()
def check_calls(monkeypatch):
    """Counts of ``chains.verify_chain`` calls, the name every builder calls
    it by, and of the per-basis check ``certify._check_orthobasis``, which
    ``verify_chain`` and ``OrthogonalBasis`` call; ``costs`` lists the
    evaluations of b that each per-basis check makes."""
    calls = {"verify_chain": 0, "_check_orthobasis": 0}
    costs = []
    for module, name in ((chains, "verify_chain"), (certify, "_check_orthobasis")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            if _name == "_check_orthobasis":
                costs.append(0)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)

    def counted_b(*args, _original=certify._b):
        costs[-1] += 1
        return _original(*args)

    monkeypatch.setattr(certify, "_b", counted_b)

    def reset():
        calls.update(verify_chain=0, _check_orthobasis=0)
        costs.clear()
        return costs

    return calls, reset


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_chain_local_checks_each_basis_once(spec, check_calls):
    """One check per basis; the first and last bases hold the vectors of
    the endpoints, judged when they were made, and cost no evaluation of b,
    the others at most 2n - 1 = 7."""
    calls, reset = check_calls
    ring = parse_ring(spec)
    rng = seeded(zlib.crc32(spec.encode()))
    S = random_diagonal_space(ring, 4, rng)
    A = random_orthogonal_basis(S, rng)
    B = random_orthogonal_basis(S, rng)
    costs = reset()
    chain = chain_local(A, B)
    assert calls == {"verify_chain": 1, "_check_orthobasis": len(chain)}
    assert costs[0] == costs[-1] == 0 and max(costs) <= 7, costs


def test_every_chain_builder_verifies_once(check_calls):
    """One ``verify_chain`` and one check per basis for every builder.  A
    first or last basis costs no evaluation of b when its endpoint was
    judged when made (``OrthogonalBasis`` with validation); from an
    unjudged ``_of`` endpoint the first costs a full check, n(n+1)/2, and
    the last at most 2n - 1."""
    calls, reset = check_calls
    rng = seeded(9)
    F4, F5, Z9, Z4 = (parse_ring(s) for s in ("GF(4)", "GF(5)", "Z/9", "Z/4"))
    S5 = random_diagonal_space(F5, 4, rng)
    A5, B5 = random_orthogonal_basis(S5, rng), random_orthogonal_basis(S5, rng)
    E5 = standard_basis(ident_space(F5, 4))
    E9 = standard_basis(ident_space(Z9, 3))
    M9 = elementary_move(E9, Z9.from_int(3), 0, 1)
    E4 = standard_basis(ident_space(Z4, 2))
    M4 = elementary_move(E4, Z4.from_int(2), 0, 1)
    A2, B2 = residue_f2_pair()
    # (builder, whether its start and its end were judged)
    builders = [
        (lambda: chain_field(A5, B5), True, True),
        (lambda: chain_equal_mod_m(E9, M9), True, True),
        (lambda: extend_vector_chain(E5, (F5.one, F5.one, F5.zero, F5.one))[0], True, False),
        (lambda: hat_chain(4, F4), False, False),
        (lambda: bfs_chain_oracle(E4, M4).chain, True, True),
        (lambda: chain_local(A2, B2), True, True),
    ]
    for build, judged_start, judged_end in builders:
        costs = reset()
        chain = build()
        assert calls == {"verify_chain": 1, "_check_orthobasis": len(chain)}
        n = chain.space.n
        assert len(chain) > 1 and costs[0] == (0 if judged_start else n * (n + 1) // 2), costs
        assert (costs[-1] == 0) if judged_end else (0 < costs[-1] <= 2 * n - 1), costs
        assert max(costs[1:-1], default=0) <= 2 * n - 1, costs
