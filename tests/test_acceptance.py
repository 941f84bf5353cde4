"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated runtime budget.  Run with `pytest -s` to see the
per-criterion lines."""

import contextlib
import itertools
import sys
import time
import zlib

import pytest

from wittlab import (
    BilinearSpace,
    Chain,
    ChainUnreachableError,
    CongruenceWitness,
    GroupRingElement,
    OrthogonalBasis,
    all_orthogonal_bases,
    bfs_chain_oracle,
    chain_local,
    check_representation_identity,
    comparison_map,
    gw_structure,
    hyperbolic_scaling_witness,
    kmw_structure,
    parse_ring,
    random_diagonal_space,
    random_orthogonal_basis,
    resolve_block,
    stable_isometry_oracle,
    standard_basis,
    steinberg_witness,
    verify_chain,
    verify_steinberg_consequences,
)
from wittlab.groups import _class_data

from conftest import MATRIX_SPECS, seeded, vec_add
from paper_data import f4_chain_certificate

CEX = "GF(2)[x]/(x^4)"


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    line = f"criterion {number:2d}: PASS ({elapsed:6.2f}s / budget {budget_seconds}s) - {description}"
    print(line)
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


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


def test_criterion_01_counterexample_ring_structures():
    with criterion(1, "GW, K0MW and comparison kernel for GF(2)[x]/(x^4)", 10):
        R = parse_ring(CEX)
        sg = gw_structure(R)
        assert sg.free_rank == 1 and sg.invariant_factors == (2, 2)
        sk = kmw_structure(R)
        assert sk.free_rank == 1 and sk.invariant_factors == (2, 2, 2)
        report = comparison_map(R)
        assert report.kernel_free_rank == 0
        assert report.kernel_invariant_factors == (2,)
        assert not report.is_isomorphism


def test_criterion_02_unit_group_facts():
    with criterion(2, "unit group and square classes of GF(2)[x]/(x^4)", 1):
        R = parse_ring(CEX)
        assert len(R.units()) == 8
        sc = R.square_classes()
        assert {repr(s) for s in sc.squares} == {"1", "1+x^2"}
        assert len(sc.reps) == 4
        stated = [
            R.element_from_json([1]),
            R.element_from_json([1, 1]),
            R.element_from_json([1, 1, 1]),
            R.element_from_json([1, 0, 1, 1]),
        ]
        # the stated elements represent the four classes, pairwise inequivalent
        assert len({sc.class_index[u.data] for u in stated}) == 4


def test_criterion_03_comparison_isomorphism_matrix():
    with criterion(3, "K0MW -> GW isomorphism for every residue != F_2 ring", 120):
        for spec in MATRIX_SPECS:
            report = comparison_map(parse_ring(spec))
            assert report.is_isomorphism, spec
            assert report.kernel_invariant_factors == ()
            assert report.kernel_free_rank == 0


def test_criterion_04_gw_f2():
    with criterion(4, "GW(F_2) is the integers", 1):
        F2 = parse_ring("GF(2)")
        s = gw_structure(F2)
        assert s.free_rank == 1 and s.invariant_factors == ()
        assert comparison_map(F2).is_isomorphism


def test_criterion_05_chain_lemma_suite():
    with criterion(5, "100 verified chains per (ring, n), n in {2,3,4}", 300):
        for spec in MATRIX_SPECS:
            ring = parse_ring(spec)
            rng = seeded(0xC5 + zlib.crc32(spec.encode()) % 1000)
            for n in (2, 3, 4):
                for _ in range(100):
                    S = random_diagonal_space(ring, n, rng)
                    A = random_orthogonal_basis(S, rng)
                    B = random_orthogonal_basis(S, rng)
                    chain = chain_local(A, B)
                    ok, msg = verify_chain(chain, A, B)
                    assert ok, (spec, n, msg)


def test_criterion_06_f2_counterexample():
    with criterion(6, "F_2 counterexample: disconnected components, unique basis", 10):
        F2 = parse_ring("GF(2)")
        S4 = BilinearSpace.diagonal(F2, (F2.one,) * 4)
        e = standard_basis(S4)
        ehat = hat_basis(S4)
        res = bfs_chain_oracle(e, ehat)
        assert res.status == "unreachable"
        assert len(res.component) == 1  # e is chain equivalent only to itself
        res_back = bfs_chain_oracle(ehat, e)
        assert res_back.status == "unreachable"

        S3 = BilinearSpace.diagonal(F2, (F2.one,) * 3)
        bases = all_orthogonal_bases(S3)
        assert len(bases) == 1
        assert bases[0] == standard_basis(S3).vector_set()


def test_criterion_07_paper_f4_chain():
    with criterion(7, "the paper's 8-basis chain over F_4 verifies", 1):
        chain = Chain.from_json(f4_chain_certificate())
        assert len(chain) == 8
        S = chain.space
        ok, msg = verify_chain(chain, standard_basis(S), hat_basis(S))
        assert ok, msg


def test_criterion_08_identity_witnesses():
    with criterion(8, "explicit witnesses verify for 500 randomized draws", 30):
        rng = seeded(0xC8)
        block_rings = [
            parse_ring(s)
            for s in ["Z/4", "Z/9", "Z/27", CEX, "GF(3)[x]/(x^2)", "GF(4)[y]/(y^2)"]
        ]
        for _ in range(500):
            ring = block_rings[rng.randrange(len(block_rings))]
            ideal = ring.maximal_ideal()
            a = ideal[rng.randrange(len(ideal))]
            b = ideal[rng.randrange(len(ideal))]
            units, witness = resolve_block(ring, a, b)  # verified on construction
            assert all(u.is_unit() for u in units)

        st_rings = []
        for spec in MATRIX_SPECS:
            ring = parse_ring(spec)
            pairs = [u for u in ring.units() if (ring.one - u).is_unit()]
            if pairs:
                st_rings.append((ring, pairs))
        for _ in range(500):
            ring, pairs = st_rings[rng.randrange(len(st_rings))]
            a = pairs[rng.randrange(len(pairs))]
            steinberg_witness(ring, a)

        all_rings = [parse_ring(s) for s in MATRIX_SPECS] + [parse_ring(CEX)]
        for _ in range(500):
            ring = all_rings[rng.randrange(len(all_rings))]
            hyperbolic_scaling_witness(ring, ring.random_unit(rng))

        # the fixed 2x2 matrix from the counterexample computation
        R = parse_ring(CEX)
        x = R.element_from_json([0, 1])
        one = R.one
        s = x + x * x + x ** 3
        CongruenceWitness(
            R,
            BilinearSpace.diagonal(R, (one, one + x)).gram,
            BilinearSpace.diagonal(R, (one + x + x * x, R.element_from_json([1, 0, 1, 1]))).gram,
            ((x, one), (one, s)),
        )


def test_criterion_09_representation_identity():
    with criterion(9, "representation identity: 1000 samples over F_5 and Z/27", 30):
        for spec in ["GF(5)", "Z/27"]:
            ring = parse_ring(spec)
            rng = seeded(0xC9)
            done = 0
            while done < 1000:
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


def test_criterion_10_steinberg_consequences():
    with criterion(10, "Steinberg consequences for residue not in {F_2, F_3}", 120):
        for spec in MATRIX_SPECS:
            ring = parse_ring(spec)
            report = verify_steinberg_consequences(ring)
            if ring.residue_field().size in (2, 3):
                assert not report.asserted  # informational only
            else:
                assert report.asserted
                assert report.ok, spec


def _tuple_gw_coords(ring, structure, tup):
    cd = _class_data(ring)
    elt = GroupRingElement(ring)
    for c in tup:
        elt = elt + GroupRingElement.generator(cd.reps[c])
    return structure.coords_of_group_ring(elt)


def test_criterion_11_oracle_equivalence():
    with criterion(11, "chain/BFS and gw/stable-isometry oracle agreement", 600):
        # (a) chain_local reachability agrees with the BFS oracle
        rng = seeded(0xCB)
        family = [
            ("GF(3)", 2), ("GF(3)", 3),
            ("GF(4)", 2), ("GF(4)", 3),
            ("GF(5)", 2), ("GF(5)", 3),
            ("Z/9", 2),
            ("Z/4", 2), ("Z/4", 3),
            ("GF(2)[x]/(x^2)", 2), ("GF(2)[x]/(x^2)", 3),
            (CEX, 2),
        ]
        for spec, n in family:
            ring = parse_ring(spec)
            assert ring.size ** n <= 2 ** 12
            for _ in range(3):
                S = random_diagonal_space(ring, n, rng)
                A = random_orthogonal_basis(S, rng)
                B = random_orthogonal_basis(S, rng)
                bfs = bfs_chain_oracle(A, B)
                try:
                    chain = chain_local(A, B)
                    reached = True
                    ok, msg = verify_chain(chain, A, B)
                    assert ok, msg
                except ChainUnreachableError:
                    reached = False
                assert reached == (bfs.status == "found"), (spec, n)

        # the genuinely disconnected case, both directions
        F2 = parse_ring("GF(2)")
        S4 = BilinearSpace.diagonal(F2, (F2.one,) * 4)
        e, ehat = standard_basis(S4), hat_basis(S4)
        assert bfs_chain_oracle(e, ehat).status == "unreachable"
        with pytest.raises(ChainUnreachableError):
            chain_local(e, ehat)

        # (b) gw_class separation agrees with the stable isometry oracle
        for spec in ["GF(2)", CEX, "GF(3)", "GF(5)", "Z/9", "GF(4)"]:
            ring = parse_ring(spec)
            orc = stable_isometry_oracle(ring, rank_cap=3, stab_cap=2)
            assert not orc.undecided, spec
            s = gw_structure(ring)
            cd = _class_data(ring)
            exact_expected = ring.residue_field().size % 2 == 1 or ring.is_field
            for m, comps in orc.classes.items():
                nodes = [t for comp in comps for t in comp]
                coords = {t: _tuple_gw_coords(ring, s, t) for t in nodes}
                for ta, tb in itertools.combinations(nodes, 2):
                    identified = orc.same_class(ta, tb)
                    gw_equal = coords[ta] == coords[tb]
                    # sound direction: identifications imply GW equality,
                    # equivalently GW-distinct pairs are oracle-separated
                    if identified:
                        assert gw_equal, (spec, ta, tb)
                    if exact_expected:
                        assert identified == gw_equal, (spec, ta, tb)
