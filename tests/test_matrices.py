import functools
import itertools
import operator

import pytest

from wittlab import parse_ring
from wittlab import matrices as mx

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
