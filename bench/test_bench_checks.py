"""Self-tests of the benchmark: its checkers reject wrong outputs, and the
machine-speed scaling does the arithmetic it claims.

    PYTHONPATH=src python -m pytest -q bench/test_bench_checks.py
"""

import os
import random
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refscale  # noqa: E402
import run  # noqa: E402
import ringcheck  # noqa: E402
import workloads  # noqa: E402
from ringcheck import CheckError, Ring  # noqa: E402

import wittlab  # noqa: E402


# -- scaling ------------------------------------------------------------------


def test_scale_factor_is_nominal_over_mean_reference():
    nominal = refscale.NOMINAL_REF_S
    assert refscale.scale_factor(nominal, nominal) == pytest.approx(1.0)
    # a host running at half speed doubles the reference time: halve the interval
    assert refscale.scale_factor(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    # the interval's factor uses the mean of the references on both sides
    assert refscale.scale_factor(nominal / 2, 3 * nominal / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        refscale.scale_factor(0.0, nominal)


def test_bracket_shares_boundary_references(monkeypatch):
    nominal = refscale.NOMINAL_REF_S
    refs = iter([nominal, 3 * nominal, nominal])
    monkeypatch.setattr(refscale, "time_reference", lambda: next(refs))
    bracket = refscale.Bracket()
    assert bracket.close() == pytest.approx(0.5)   # mean of 1x and 3x nominal
    assert bracket.close() == pytest.approx(0.5)   # 3x nominal starts the next interval
    assert bracket.refs == [nominal, 3 * nominal, nominal]


def test_percentiles_are_nearest_rank():
    values = list(range(1, 101))
    assert refscale.percentile(values, 50) == 50
    assert refscale.percentile(values, 90) == 90


# -- the benchmark's own arithmetic ----------------------------------------------


def test_own_rings_have_the_textbook_invariants():
    gf9 = Ring("GF(3)[x]/(x^2+1)")
    assert (gf9.size, len(gf9.units), gf9.residue_size, gf9.square_classes) == (9, 8, 9, 2)
    r = Ring("GF(4)[y]/(y^2)")
    assert (r.size, len(r.units), r.residue_size, r.square_classes) == (16, 12, 4, 4)
    z27 = Ring("Z/27")
    assert (len(z27.units), z27.residue_size, z27.square_classes) == (18, 3, 2)
    with pytest.raises(ValueError):
        Ring("Z/6")


def test_generated_bases_are_orthogonal():
    rng = random.Random(5)
    for spec in ("GF(4)[y]/(y^2)", "Z/27", "GF(2)[x]/(x^3+x+1)"):
        ring = Ring(spec)
        gram = ring.random_diagonal_gram(4, rng)
        ringcheck.check_orthogonal_basis(ring, gram, ring.random_orthogonal_basis(gram, rng))


# -- chain certificates -------------------------------------------------------------


def _chain(spec, n, seed):
    """A certificate from the library between two bases that share no vector."""
    wl = workloads.ChainLift()
    ring = wl.rings[spec]
    state = {"lib": wittlab, "rings": {spec: wittlab.parse_ring(spec)}}
    rng = random.Random(seed)
    while True:
        gram = ring.random_diagonal_gram(n, rng)
        start = ring.random_orthogonal_basis(gram, rng)
        end = ring.random_orthogonal_basis(gram, rng)
        if not set(start) & set(end):
            break
    cert = wl.make_call(state, {"spec": spec, "gram": gram, "start": start, "end": end})()
    return ring, gram, start, end, cert


@pytest.fixture(scope="module")
def chain():
    ring, gram, start, end, cert = _chain("Z/9", 3, 1)
    assert len(cert["bases"]) >= 3
    return ring, gram, start, end, cert


def test_checker_accepts_library_certificates(chain):
    ringcheck.check_chain_certificate(*chain)
    ringcheck.check_chain_certificate(*_chain("GF(4)[y]/(y^2)", 3, 2))


def test_checker_rejects_a_changed_vector(chain):
    ring, gram, start, end, cert = chain
    bad = {**cert, "bases": [list(map(list, b)) for b in cert["bases"]]}
    v = bad["bases"][1][0]
    v[0] = (v[0] + 1) % 9
    with pytest.raises(CheckError, match="basis 1"):
        ringcheck.check_chain_certificate(ring, gram, start, end, bad)


def test_checker_rejects_a_step_that_replaces_three_vectors(chain):
    ring, gram, start, end, cert = chain
    bad = {**cert, "bases": [cert["bases"][0], cert["bases"][-1]]}
    with pytest.raises(CheckError, match="shares 0 < 1 vectors"):
        ringcheck.check_chain_certificate(ring, gram, start, end, bad)


def test_checker_rejects_a_wrong_endpoint(chain):
    ring, gram, start, end, cert = chain
    last = [list(v) for v in cert["bases"][-1]]
    last[0] = [(-c) % 9 for c in last[0]]          # -v is still anisotropic
    bad = {**cert, "bases": cert["bases"] + [last]}
    with pytest.raises(CheckError, match="does not end"):
        ringcheck.check_chain_certificate(ring, gram, start, end, bad)
    with pytest.raises(CheckError, match="does not start"):
        ringcheck.check_chain_certificate(ring, gram, end, end, cert)


def test_checker_rejects_another_ring_or_gram(chain):
    ring, gram, start, end, cert = chain
    with pytest.raises(CheckError, match="ring"):
        ringcheck.check_chain_certificate(ring, gram, start, end, {**cert, "ring": "Z/27"})
    other = [[(c + 3) % 9 if i == j == 0 else c for j, c in enumerate(row)]
             for i, row in enumerate(cert["gram"])]
    with pytest.raises(CheckError, match="Gram"):
        ringcheck.check_chain_certificate(ring, gram, start, end, {**cert, "gram": other})


# -- group outputs ---------------------------------------------------------------------


def _structure(rank, factors, units):
    return {"free_rank": rank, "invariant_factors": factors,
            "generator_images": {str(u): [] for u in units}}


def test_group_checker_knows_odd_residue_answers():
    z9 = Ring("Z/9")
    ok = {"command": "gw", **_structure(1, [2], z9.units)}
    ringcheck.check_group_output(z9, "gw", ok)
    with pytest.raises(CheckError):
        ringcheck.check_group_output(z9, "gw", {**ok, "invariant_factors": [2, 2]})
    with pytest.raises(CheckError, match="free rank"):
        ringcheck.check_group_output(z9, "gw", {**ok, "free_rank": 2})
    witt = {"command": "witt", **_structure(0, [4], z9.units)}     # q = 3
    ringcheck.check_group_output(z9, "witt", witt)
    with pytest.raises(CheckError):
        ringcheck.check_group_output(z9, "witt", {**witt, "invariant_factors": [2, 2]})


def test_group_checker_knows_the_paper_counterexample():
    r = Ring("GF(2)[x]/(x^4)")
    kmw = _structure(1, [2, 2, 2], r.units)
    gw = _structure(1, [2, 2], r.units)
    out = {"command": "compare", "kmw": kmw, "gw": gw, "is_isomorphism": False,
           "kernel": {"free_rank": 0, "invariant_factors": [2]}}
    ringcheck.check_group_output(r, "compare", out)
    with pytest.raises(CheckError):
        ringcheck.check_group_output(
            r, "compare", {**out, "is_isomorphism": True,
                           "kernel": {"free_rank": 0, "invariant_factors": []}})
    z9 = Ring("Z/9")
    iso = {"command": "compare", "kmw": _structure(1, [2], z9.units),
           "gw": _structure(1, [2], z9.units), "is_isomorphism": True,
           "kernel": {"free_rank": 0, "invariant_factors": []}}
    ringcheck.check_group_output(z9, "compare", iso)
    with pytest.raises(CheckError):
        ringcheck.check_group_output(
            z9, "compare", {**iso, "gw": _structure(1, [], z9.units), "is_isomorphism": False,
                            "kernel": {"free_rank": 0, "invariant_factors": [2]}})


# -- forms ------------------------------------------------------------------------------


def _forms_round(spec, seed):
    """Eight ops of forms_warm over one ring, with the library's classes."""
    wl = workloads.FormsWarm()
    ring = wl.rings[spec]
    rng = random.Random(seed)
    ops = [{"spec": spec, "gram": ring.random_symmetric_gram(n, rng),
            "congruence": ring.random_invertible(n, rng),
            "summand": ring.random_symmetric_gram(2, rng)} for n in (3, 3, 3, 3, 4, 4, 4, 4)]
    R = wittlab.parse_ring(spec)
    S = wittlab.gw_structure(R)
    state = {"lib": wittlab, "rings": {spec: R}, "structures": {spec: S}}
    return wl, state, ops


def _outputs(wl, state, ops, gw_class):
    rnd = workloads.Round(len(ops))
    S = state["structures"][ops[0]["spec"]]
    rnd.outputs = [list(gw_class(wl._space(state, op["spec"], op["gram"]), S)) for op in ops]
    return rnd


@pytest.mark.parametrize("spec", ["Z/9", "GF(3)[x]/(x^2+1)"])
def test_forms_check_accepts_library_classes(spec):
    wl, state, ops = _forms_round(spec, 3)
    assert wl.check(state, ops, _outputs(wl, state, ops, wittlab.gw_class)) == {}


@pytest.mark.parametrize("fake", [
    lambda space, S: [0, 0],            # constant: a homomorphism, congruence-invariant
    lambda space, S: [0, space.n],      # rank only, as when every diagonal entry reads 1
])
def test_forms_check_rejects_classes_blind_to_the_discriminant(fake):
    wl, state, ops = _forms_round("Z/9", 3)
    lib = types.SimpleNamespace(BilinearSpace=wittlab.BilinearSpace, gw_class=fake)
    state = {**state, "lib": lib}
    fails = wl.check(state, ops, _outputs(wl, state, ops, fake))
    assert fails and set(fails.values()) == {"class does not match rank and discriminant"}


# -- failure accounting -------------------------------------------------------------------


class _FakeWorkload:
    """50 ops per round; each op raises when ``raises`` holds."""

    name = "fake"

    def __init__(self, raises):
        self.raises = raises

    def make_inputs(self, seed):
        return list(range(50))

    def prepare(self, lib):
        return {"lib": lib}

    def run_round(self, state, ops, tracer=None):
        def op(i):
            if self.raises:
                raise RuntimeError("broken")
            return i
        return workloads.timed_round([lambda i=i: (lambda: op(i)) for i in ops])

    def check(self, state, ops, rnd):
        return {}


@pytest.mark.parametrize("raises", [False, True])
def test_every_failed_attempt_counts_and_makes_the_run_incorrect(raises, monkeypatch):
    # keep the test session's wittlab modules in place of a fresh import
    monkeypatch.setattr(run, "fresh_import", lambda: wittlab)
    _, result = run.run_untraced(_FakeWorkload(raises), seed=1, seconds=0)
    assert result["attempted"] == 100                  # two whole rounds
    assert result["failed"] == (100 if raises else 0)
    assert result["correct"] is not raises
