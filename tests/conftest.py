import random

import pytest

from wittlab import parse_ring


# rings with residue field != F_2 exercised by the chain and group suites
MATRIX_SPECS = [
    "GF(3)",
    "GF(4)",
    "GF(5)",
    "GF(7)",
    "GF(8)",
    "GF(9)",
    "Z/9",
    "Z/27",
    "GF(3)[x]/(x^2)",
    "GF(4)[y]/(y^2)",
]

# rings whose residue field is F_2: the chain lemma fails, and chain_local
# finds a chain iff the residue bases agree as sets (n >= 3)
F2_RESIDUE_SPECS = ["GF(2)", "Z/4", "GF(2)[x]/(x^2)", "GF(2)[x]/(x^4)"]

COUNTEREXAMPLE_SPEC = "GF(2)[x]/(x^4)"


@pytest.fixture(scope="session")
def rings():
    return {spec: parse_ring(spec) for spec in MATRIX_SPECS + F2_RESIDUE_SPECS}


@pytest.fixture()
def rng():
    return random.Random(0)


def seeded(seed):
    return random.Random(seed)


def residue_f2_pair():
    """Two random orthogonal bases of a random diagonal space over
    GF(2)[x]/(x^4) at n = 3, where |R|^n = 4096; their reductions agree as
    sets."""
    from wittlab import random_diagonal_space, random_orthogonal_basis

    rng = seeded(5)
    space = random_diagonal_space(parse_ring(COUNTEREXAMPLE_SPEC), 3, rng)
    return random_orthogonal_basis(space, rng), random_orthogonal_basis(space, rng)


def lifted_hat_basis(space):
    """A lift of the residue basis of weights n-1 (the hat basis over F_2)."""
    from wittlab import lift_basis

    F = space.ring.residue_field()
    n = space.n
    return lift_basis(space, [[F.zero if i == r else F.one for i in range(n)] for r in range(n)])


# element-level vector arithmetic for test references; the library
# computes on index tuples
def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def vec_combo(vectors, coeffs):
    acc = vec_scale(coeffs[0], vectors[0])
    for c, v in zip(coeffs[1:], vectors[1:]):
        acc = vec_add(acc, vec_scale(c, v))
    return acc


@pytest.fixture()
def search_cap_one(monkeypatch):
    """A fresh ring registry, so every ring parsed in the test starts with
    empty state, and a search space cap of one vector, so every pair of
    tuple classes that determinant class and q-distribution leave open is
    reported as undecided instead of searched."""
    from wittlab import bilinear, rings

    monkeypatch.setattr(rings, "_parse_cache", {})
    monkeypatch.setattr(bilinear, "SEARCH_SPACE_CAP", 1)
