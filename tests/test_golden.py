"""Byte-for-byte golden outputs of the witt-lab CLI.

Each file under tests/golden/ is the exact stdout of one ``witt-lab`` call
listed in CASES.  Refactors of the chain builders, the elimination routines,
the group presentations and structures, or the CLI must leave these bytes
unchanged: the group files pin the invariant factors, every generator image
and the comparison matrix.
"""

import json
from pathlib import Path

import pytest

from wittlab.cli import run

from paper_data import f4_chain_certificate

GOLDEN = Path(__file__).parent / "golden"


def _identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# GF(4)[y]/(y^2), n = 4: a diagonal space and two orthogonal bases drawn by
# random_diagonal_space / random_orthogonal_basis with random.Random(4).
_GF4Y2_GRAM = [
    [[[1], [1]], [], [], []],
    [[], [[0, 1], [1]], [], []],
    [[], [], [[0, 1]], []],
    [[], [], [], [[1, 1], [1, 1]]],
]
_GF4Y2_FROM = [
    [[[], [1, 1]], [[1, 1], [1, 1]], [[], [1]], [[0, 1]]],
    [[[0, 1]], [[], [0, 1]], [], [[], [1, 1]]],
    [[[], [1, 1]], [[1], [1]], [[1], [0, 1]], [[1]]],
    [[[], [0, 1]], [[1, 1]], [[0, 1], [1]], [[1, 1], [1]]],
]
_GF4Y2_TO = [
    [[[1, 1], [0, 1]], [[], [0, 1]], [[1], [1]], [[1, 1]]],
    [[[1], [1]], [[], [0, 1]], [[], [0, 1]], [[0, 1], [1]]],
    [[[1], [1]], [[1], [1]], [[1, 1], [1, 1]], [[1], [0, 1]]],
    [[[1]], [[1, 1]], [[1, 1], [0, 1]], [[1], [0, 1]]],
]

# GF(5) and Z/9, n = 4: random_diagonal_space plus two random_orthogonal_basis
# draws with random.Random(6) and random.Random(2); both chains run the
# odd-characteristic contraction loop, the Z/9 one over the ring itself: 5 pair
# contractions each, of which 3 are on a support of size >= 3
_ODD_CHAINS = {
    "gf5": ("GF(5)",
            [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
            [[0, 1, 4, 3], [2, 4, 3, 1], [3, 3, 3, 4], [4, 4, 1, 4]],
            [[0, 1, 4, 4], [2, 3, 4, 0], [3, 4, 3, 2], [4, 0, 1, 2]]),
    "z9": ("Z/9",
           [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]],
           [[0, 2, 6, 6], [0, 3, 0, 5], [7, 3, 5, 0], [2, 3, 8, 0]],
           [[3, 0, 2, 5], [2, 2, 7, 8], [2, 2, 8, 7], [1, 8, 6, 6]]),
}

CASES = {
    "chain_gf3_n2.json": [
        "chain", "--ring", "GF(3)", "--gram", json.dumps([[1, 0], [0, 1]]),
        "--from", json.dumps([[1, 0], [0, 1]]), "--to", json.dumps([[1, 1], [1, 2]]),
    ],
    # the paper's e -> e-hat on <1,1,1,1> over F_4
    "chain_f4_hat_n4.json": [
        "chain", "--ring", "GF(4)", "--gram", json.dumps(_identity(4, [1], [])),
        "--from", json.dumps(_identity(4, [1], [])),
        "--to", json.dumps(_identity(4, [], [1])),
    ],
    "chain_gf4y2_n4.json": [
        "chain", "--ring", "GF(4)[y]/(y^2)", "--gram", json.dumps(_GF4Y2_GRAM),
        "--from", json.dumps(_GF4Y2_FROM), "--to", json.dumps(_GF4Y2_TO),
    ],
    "verify_f4_paper.json": ["verify", "--cert", json.dumps(f4_chain_certificate())],
}
CASES.update({
    f"chain_{tag}_n4.json": [
        "chain", "--ring", spec, "--gram", json.dumps(gram),
        "--from", json.dumps(frm), "--to", json.dumps(to),
    ]
    for tag, (spec, gram, frm, to) in _ODD_CHAINS.items()
})

# kmw, gw, witt and compare on rings with residue field F_4, F_5 and F_2
_GROUP_RINGS = {
    "gf4y2": "GF(4)[y]/(y^2)",
    "z25": "Z/25",
    "gf5x2": "GF(5)[x]/(x^2)",
    "gf2x4": "GF(2)[x]/(x^4)",
}
CASES.update({
    f"{cmd}_{tag}.json": [cmd, "--ring", spec]
    for cmd in ("kmw", "gw", "witt", "compare")
    for tag, spec in _GROUP_RINGS.items()
})
# compare on Z/81, whose 54 units fall into 2 square classes
CASES["compare_z81.json"] = ["compare", "--ring", "Z/81"]

# ring-info, oracle and steinberg-check on a field and on a char-2 local ring
# whose Steinberg consequences fail; the GF(2)[x]/(x^4) oracle runs at
# --stab-cap 0, which keeps the case to a third of a second (about 1 s at
# the default stabilization)
_INFO_RINGS = {"gf5": "GF(5)", "gf2x4": "GF(2)[x]/(x^4)"}
CASES.update({
    f"{stem}_{tag}.json": [cmd, "--ring", spec]
    for cmd, stem in (("ring-info", "ring_info"), ("oracle", "oracle"),
                      ("steinberg-check", "steinberg_check"))
    for tag, spec in _INFO_RINGS.items()
})
CASES["oracle_gf2x4.json"] += ["--stab-cap", "0"]

# the padded search path: oracle at the default caps (rank 3, stab 2) on rings
# with residue field F_2 and F_3, and the rank-4 search path of gw on Z/4
CASES.update({
    f"oracle_{tag}.json": ["oracle", "--ring", spec]
    for tag, spec in (("z4", "Z/4"), ("gf2x2", "GF(2)[x]/(x^2)"), ("z9", "Z/9"))
})
CASES["gw_z4_cap4.json"] = ["gw", "--ring", "Z/4", "--rank-cap", "4"]

# diagonalize: unit lines only over Z/9 and GF(5)[x]/(x^2), two residual
# blocks (a hyperbolic plane plus [[x,1],[1,x]]) over GF(2)[x]/(x^4)
_DIAGONALIZE_GRAMS = {
    "z9": ("Z/9", [[3, 1, 0], [1, 3, 2], [0, 2, 4]]),
    "gf2x4": ("GF(2)[x]/(x^4)", [
        [[], [1], [], []],
        [[1], [], [], []],
        [[], [], [0, 1], [1]],
        [[], [], [1], [0, 1]],
    ]),
    "gf5x2": ("GF(5)[x]/(x^2)", [[[0, 1], [1], [2]], [[1], [0, 1], []], [[2], [], [3, 1]]]),
}
CASES.update({
    f"diagonalize_{tag}.json": ["diagonalize", "--ring", spec, "--gram", json.dumps(gram)]
    for tag, (spec, gram) in _DIAGONALIZE_GRAMS.items()
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
