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

# rings whose residue field is F_2 (chain lemma fails; BFS territory)
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
    empty state, and an isometry-search cap of one vector, so every pair of
    tuple classes that determinant class and q-distribution leave open is
    reported as undecided instead of searched."""
    from wittlab import groups, rings

    monkeypatch.setattr(rings, "_parse_cache", {})
    monkeypatch.setattr(groups, "_FULL_SEARCH_SPACE_CAP", 1)
