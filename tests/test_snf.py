import random
from itertools import combinations
from math import gcd

import pytest

from wittlab import certify, snf


def laplace_det(M):
    """Reference determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * laplace_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)) if M[0][j])


def dense_mul(A, B):
    """Reference product: the full triple loop."""
    if not A or not B:
        return []
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def minors_gcd_invariants(A, m, n):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    def det(rows, cols):
        return laplace_det([[A[i][j] for j in cols] for i in rows])

    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det(rows, cols))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_known_example():
    A = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    res = snf.smith_normal_form(A, 3)
    assert res.diag == [1, 10, 30]
    assert res.verify(A)


def test_zero_and_empty():
    res = snf.smith_normal_form([], 3)
    assert res.diag == []
    res = snf.smith_normal_form([[0, 0]], 2)
    assert res.diag == []
    assert res.verify([[0, 0]])


def test_random_matrices_match_minors_oracle():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        res = snf.smith_normal_form(A, n)
        assert res.verify(A), A
        assert res.diag == minors_gcd_invariants(A, m, n), A


def test_divisibility_chain():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randrange(2, 6)
        n = rng.randrange(2, 6)
        A = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        res = snf.smith_normal_form(A, n)
        for a, b in zip(res.diag, res.diag[1:]):
            assert b % a == 0


def test_hnf_preserves_row_space():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        basis = snf.hnf_rows(A, n)
        for row in A:
            assert snf.solve_in_rowspace(basis, row) is not None
        # basis rows lie in the original row space: same SNF invariants
        assert (
            snf.smith_normal_form(A, n).diag
            == snf.smith_normal_form([list(b) for b in basis], n).diag
        )


def test_solve_in_rowspace_negative():
    basis = snf.hnf_rows([[2, 0], [0, 2]], 2)
    assert snf.solve_in_rowspace(basis, [1, 0]) is None
    assert snf.solve_in_rowspace(basis, [2, -4]) is not None


def random_unimodular(rng, n, ops=12):
    """A random unimodular matrix: row additions, swaps and negations of I."""
    M = snf.int_identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randrange(-3, 4)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        if rng.random() < 0.2:
            M[i], M[j] = M[j], M[i]
        if rng.random() < 0.2:
            M[i] = [-a for a in M[i]]
    return M


def test_unimodular_inverse():
    rng = random.Random(2)
    n = 4
    for _ in range(20):
        M = random_unimodular(rng, n)
        Minv = snf.int_inverse_unimodular(M)
        assert snf.int_mat_mul(M, Minv) == snf.int_identity(n)
        assert snf.int_mat_mul(Minv, M) == snf.int_identity(n)
    assert snf.int_inverse_unimodular([]) == []


@pytest.mark.parametrize("A", [
    [[2]],
    [[1, 2], [2, 4]],          # singular
    [[2, 1], [1, 1], [0, 0]],  # not square
    [[3, 1], [1, 1]],          # determinant 2
])
def test_unimodular_inverse_rejects(A):
    with pytest.raises(ValueError):
        snf.int_inverse_unimodular(A)


def assert_reduced_hermite(basis, width):
    """Echelon rows with strictly increasing pivot columns, positive pivots,
    and every entry above a pivot in [0, pivot)."""
    pivots = [next(j for j in range(width) if row[j]) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] > 0
        for above in basis[:i]:
            assert 0 <= above[p] < row[p]


def test_hnf_is_the_reduced_form_of_the_lattice():
    """hnf_rows(A) == hnf_rows(W A) for unimodular W, with extra zero rows
    and rows that are combinations of the others."""
    rng = random.Random(23)
    for _ in range(120):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 6)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        basis = snf.hnf_rows(A, n)
        assert_reduced_hermite(basis, n)
        assert len(basis) == len(snf.smith_normal_form(A, n).diag)
        assert snf.hnf_rows(snf.int_mat_mul(random_unimodular(rng, m), A), n) == basis
        c = [rng.randrange(-2, 3) for _ in A]
        extra = [[sum(ci * a for ci, a in zip(c, col)) for col in zip(*A)]]
        assert snf.hnf_rows(A + extra + [[0] * n], n) == basis


def test_hnf_known_example():
    """Reducing the 2 above the second pivot brings a -1 above the third;
    it is reduced too, since the third pivot is appended after the second."""
    assert snf.hnf_rows([[1, 2, 0], [0, 2, 1], [0, 0, 2]], 3) == \
        [(1, 0, 1), (0, 2, 1), (0, 0, 2)]


def test_smith_verify_rejects_a_non_unimodular_transform():
    A = [[2, 0], [0, 3]]
    res = snf.smith_normal_form(A, 2)
    assert res.verify(A)
    res.U = [[2 * a for a in row] for row in res.U]
    res.diag = [2 * d for d in res.diag]
    assert not res.verify(A)


def test_sparse_product_matches_dense_reference():
    rng = random.Random(14)
    for _ in range(300):
        n, k, m = rng.randrange(0, 6), rng.randrange(1, 6), rng.randrange(0, 6)
        density = rng.choice([0.0, 0.2, 0.6, 1.0])

        def entry():
            return rng.randrange(-9, 10) if rng.random() < density else 0

        A = [[entry() for _ in range(k)] for _ in range(n)]
        B = [[entry() for _ in range(m)] for _ in range(k)]
        for M, size in ((A, k), (B, m)):  # a zero row and a zero column
            if M and size:
                M[rng.randrange(len(M))] = [0] * size
                j = rng.randrange(size)
                for row in M:
                    row[j] = 0
        assert snf.int_mat_mul(A, B) == dense_mul(A, B), (A, B)
    for A, B in (([], []), ([], [[1, 2]]), ([[1, 2]], []), ([[]], []), ([[1], [2]], [[]])):
        assert snf.int_mat_mul(A, B) == dense_mul(A, B)


def test_int_det_matches_cofactor_expansion():
    """The checker's Bareiss determinant against ``laplace_det``, on dense
    and sparse matrices up to 6x6, including ones whose leading entries
    vanish so that rows must be swapped."""
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(0, 7)
        density = rng.choice([0.2, 0.6, 1.0])
        M = [[rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        assert certify.int_det(M) == laplace_det(M), M
    assert certify.int_det([[0, 1], [1, 0]]) == -1
    assert certify.int_det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6


def test_int_det_of_unimodular_and_singular_matrices():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randrange(1, 7)
        assert certify.int_det(random_unimodular(rng, n)) in (1, -1)
        # rank at most n - 1: a product through n - 1 dimensions
        A = [[rng.randrange(-5, 6) for _ in range(n - 1)] for _ in range(n)]
        B = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n - 1)]
        singular = dense_mul(A, B) if n > 1 else [[0]]
        assert certify.int_det(singular) == 0, singular
    assert certify.int_det([[0, 1], [0, 2]]) == 0
