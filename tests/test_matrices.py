import functools
import itertools
import operator
import time
import zlib

import pytest

from wittlab import parse_ring
from wittlab import matrices as mx

import elimination_reference as reference
from conftest import F2_RESIDUE_SPECS, MATRIX_SPECS, seeded

ALL_SPECS = MATRIX_SPECS + F2_RESIDUE_SPECS


def random_matrix(ring, rows, cols, rng):
    return tuple(
        tuple(ring.random_element(rng) for _ in range(cols)) for _ in range(rows)
    )


def random_invertible(ring, n, rng):
    while True:
        A = random_matrix(ring, n, n, rng)
        if mx.mat_det(ring, A).is_unit():
            return A


def mat_vec(A, v):
    return tuple(functools.reduce(operator.add, (a * x for a, x in zip(row, v))) for row in A)


def is_zero_vector(v):
    return all(c.is_zero() for c in v)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_mat_inverse_is_a_right_inverse(spec):
    ring = parse_ring(spec)
    rng = seeded(1)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = random_invertible(ring, n, rng)
            assert mx.mat_mul(A, mx.mat_inverse(ring, A)) == mx.mat_identity(ring, n)


def test_mat_inverse_rejects_a_non_unit_determinant():
    Z9 = parse_ring("Z/9")
    A = ((Z9.from_int(3), Z9.zero), (Z9.zero, Z9.one))
    with pytest.raises(mx.SingularMatrixError):
        mx.mat_inverse(Z9, A)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_kernel_basis_has_n_minus_rank_annihilated_vectors(spec):
    # T = L * [I_r 0; 0 0] * R with L, R invertible has a free row span of
    # rank r, so the kernel is free of rank n - r
    ring = parse_ring(spec)
    rng = seeded(2)
    for m, n in ((1, 3), (2, 2), (2, 4), (3, 3), (4, 3)):
        for r in range(min(m, n) + 1):
            D = tuple(
                tuple(ring.one if i == j and i < r else ring.zero for j in range(n))
                for i in range(m)
            )
            L = random_invertible(ring, m, rng)
            R = random_invertible(ring, n, rng)
            T = mx.mat_mul(mx.mat_mul(L, D), R)
            pivots, kernel = mx.kernel_basis(ring, T)
            assert len(pivots) == r
            assert len(kernel) == n - r
            for v in kernel:
                assert is_zero_vector(mat_vec(T, v))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_solve_field_returns_a_solution(spec):
    F = parse_ring(spec).residue_field()
    rng = seeded(3)
    for m, n in ((1, 1), (2, 3), (3, 2), (3, 3), (4, 4)):
        for _ in range(5):
            A = random_matrix(F, m, n, rng)
            x = tuple(F.random_element(rng) for _ in range(n))
            b = mat_vec(A, x)
            sol = mx.solve_field(F, A, b)
            assert sol is not None and mat_vec(A, sol) == b


@pytest.mark.parametrize("spec", ["GF(3)", "GF(4)"])
def test_solve_field_none_exactly_when_brute_force_finds_nothing(spec):
    F = parse_ring(spec)
    elems = tuple(F.elements())
    rng = seeded(4)
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        for _ in range(12):
            A = random_matrix(F, m, n, rng)
            b = tuple(F.random_element(rng) for _ in range(m))
            solvable = any(
                mat_vec(A, x) == b for x in itertools.product(elems, repeat=n)
            )
            sol = mx.solve_field(F, A, b)
            assert (sol is not None) == solvable
            if sol is not None:
                assert mat_vec(A, sol) == b


def _outcome(fn, *args):
    try:
        return fn(*args)
    except mx.SingularMatrixError:
        return mx.SingularMatrixError


def _random_rank_profile(ring, m, n, rng):
    """L * D * R with L, R invertible and D diagonal: some units, then
    perhaps a nonzero non-unit, so the row span may fail to be free."""
    ideal = [c for c in ring.maximal_ideal() if not c.is_zero()]
    r = rng.randrange(min(m, n) + 1)
    diag = [ring.one] * r
    if ideal and r < min(m, n) and rng.random() < 0.5:
        diag.append(rng.choice(ideal))
    D = tuple(
        tuple(diag[i] if i == j and i < len(diag) else ring.zero for j in range(n))
        for i in range(m)
    )
    L, R = random_invertible(ring, m, rng), random_invertible(ring, n, rng)
    return mx.mat_mul(mx.mat_mul(L, D), R)


def _row_orders(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    return [tuple(rows), tuple(reversed(rows)), tuple(shuffled)]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_elimination_matches_the_reference(spec):
    """kernel_basis, mat_inverse and solve_field give exactly the pivots,
    kernels, inverses and solutions of the column-major reference, and fail
    on the same inputs; kernels and solutions do not depend on the order of
    the rows."""
    ring = parse_ring(spec)
    F = ring.residue_field()
    rng = seeded(zlib.crc32(spec.encode()))
    seen = {"kernel": 0, "singular": 0, "solved": 0, "unsolvable": 0}
    for m, n in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (4, 3), (3, 5)):
        for _ in range(4):
            for T in (random_matrix(ring, m, n, rng), _random_rank_profile(ring, m, n, rng)):
                expected = _outcome(reference.kernel_basis, ring, T)
                for rows in _row_orders(T, rng):
                    assert _outcome(mx.kernel_basis, ring, rows) == expected, (T, rows)
                seen["singular" if expected is mx.SingularMatrixError else "kernel"] += 1
            A = random_matrix(F, m, n, rng)
            x = tuple(F.random_element(rng) for _ in range(n))
            for b in (mat_vec(A, x), tuple(F.random_element(rng) for _ in range(m))):
                expected = reference.solve_field(F, A, b)
                for pairs in _row_orders(tuple(zip(A, b)), rng):
                    PA, Pb = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
                    assert mx.solve_field(F, PA, Pb) == expected, (A, b, pairs)
                seen["unsolvable" if expected is None else "solved"] += 1
    for n in (1, 2, 3, 4):
        for _ in range(6):
            for A in (random_matrix(ring, n, n, rng), random_invertible(ring, n, rng)):
                assert _outcome(mx.mat_inverse, ring, A) == _outcome(reference.mat_inverse, ring, A)
    assert seen["kernel"] >= 20 and seen["solved"] >= 28, seen
    if not ring.is_field:
        assert seen["singular"] >= 5, seen


def test_elimination_edge_cases_over_z4():
    Z4 = parse_ring("Z/4")

    def rows(*entries):
        return tuple(tuple(Z4.from_int(c) for c in row) for row in entries)

    # a non-unit row that only the final pivots clear, in either order
    for T in (rows((0, 2), (0, 1)), rows((0, 1), (0, 2))):
        assert mx.kernel_basis(Z4, T) == reference.kernel_basis(Z4, T) == ([1], rows((1, 0)))
    T = rows((2, 0), (0, 2))
    for fn in (mx.kernel_basis, reference.kernel_basis, mx.mat_inverse, reference.mat_inverse):
        with pytest.raises(mx.SingularMatrixError):
            fn(Z4, T)
    T = rows((2, 1), (1, 0))
    assert mx.kernel_basis(Z4, T) == reference.kernel_basis(Z4, T) == ([0, 1], ())
    inverse = mx.mat_inverse(Z4, T)
    assert inverse == reference.mat_inverse(Z4, T)
    assert mx.mat_mul(T, inverse) == mx.mat_identity(Z4, 2)


def test_mat_det_of_a_large_block_in_the_maximal_ideal_is_fast():
    """With every entry of a 32 x 32 matrix over GF(2)[x]/(x^8) in the
    maximal ideal, mat_det has no unit pivot at all and hands the whole
    matrix to the division-free fallback, which is polynomial in n."""
    ring = parse_ring("GF(2)[x]/(x^8)")
    rng = seeded(1)
    ideal = ring.maximal_ideal()
    A = tuple(tuple(rng.choice(ideal) for _ in range(32)) for _ in range(32))
    t0 = time.perf_counter()
    assert mx.mat_det(ring, A) == ring.zero
    assert time.perf_counter() - t0 < 1.0


# entries of the maximal ideal whose product is nonzero, as JSON
_NON_UNIT_DIAGONAL = {
    "GF(3)[x]/(x^4)": ([0, 1],) * 3,
    "Z/27": (3, 6),
    "GF(2)[x]/(x^8)": ([0, 1],) * 7,
}


@pytest.mark.parametrize("spec", _NON_UNIT_DIAGONAL)
def test_mat_det_of_l_d_u_is_the_product_of_d(monkeypatch, spec):
    """det(L D U) = d_1 ... d_n for unitriangular L and U.  D holds the
    given entries of the maximal ideal at seeded positions and units
    elsewhere, so the determinant is a nonzero non-unit that only the
    division-free fallback computes."""
    ring = parse_ring(spec)
    entries = _NON_UNIT_DIAGONAL[spec]
    rng = seeded(zlib.crc32(spec.encode()))
    n = 20
    diagonal = [ring.random_unit(rng) for _ in range(n)]
    for i, e in zip(rng.sample(range(n), len(entries)), entries):
        diagonal[i] = ring.element_from_json(e)
    L, U = ([[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
            for _ in range(2))
    for i in range(n):
        for j in range(i):
            L[i][j], U[j][i] = ring.random_element(rng), ring.random_element(rng)
    D = tuple(tuple(diagonal[i] if i == j else ring.zero for j in range(n)) for i in range(n))
    A = mx.mat_mul(mx.mat_mul(L, D), U)
    expected = functools.reduce(operator.mul, diagonal)
    assert not expected.is_zero() and not expected.is_unit()
    blocks = []
    original = mx._division_free_det

    def spy(ring, rows):
        blocks.append(len(rows))
        return original(ring, rows)

    monkeypatch.setattr(mx, "_division_free_det", spy)
    assert mx.mat_det(ring, A) == expected
    assert len(blocks) == 1 and blocks[0] >= len(entries), blocks
