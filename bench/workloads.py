"""The three workloads: their inputs, set-up, timed operations and checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  Inputs come from the benchmark's own
arithmetic (``ringcheck``) and a ``random.Random(seed)``, and reach the
library only as JSON, the way a caller would hand them over.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
import time

import ringcheck
from refscale import Bracket, reference_loop, scale_factor, time_reference

# A batch of operations between two reference timings lasts at least this
# long (raw seconds); an operation longer than this is a batch of its own.
# Shorter batches track the host's speed changes more closely, at the cost
# of one ~15 ms reference loop per batch.
BATCH_S = 0.1


def fresh_import():
    """Import ``wittlab`` as a new process would: drop every module of a
    previous import first, so module-level caches start empty."""
    for name in list(sys.modules):
        if name == "wittlab" or name.startswith("wittlab."):
            del sys.modules[name]
    lib = importlib.import_module("wittlab")
    importlib.import_module("wittlab.cli")
    return lib


class Round:
    """Per-operation outputs, errors and raw and scaled times of one pass
    over a workload's operations."""

    def __init__(self, n):
        self.outputs = [None] * n
        self.errors: dict = {}
        self.raw = [0.0] * n
        self.scaled = [0.0] * n
        self.refs: list = []


def timed_round(calls, tracer=None) -> Round:
    """Run zero-argument callables in order, timing each from outside and
    scaling each batch by the reference timings around it."""
    rnd = Round(len(calls))
    bracket = Bracket()
    batch: list = []
    batch_raw = 0.0
    clock = time.perf_counter
    for i, make in enumerate(calls):
        fn = make()
        if tracer is not None:
            tracer.enabled = True
        t0 = clock()
        try:
            rnd.outputs[i] = fn()
        except Exception as exc:  # the op fails; the run goes on
            rnd.errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        rnd.raw[i] = t1 - t0
        batch.append(i)
        batch_raw += t1 - t0
        if batch_raw >= BATCH_S or i == len(calls) - 1:
            factor = bracket.close()
            for j in batch:
                rnd.scaled[j] = rnd.raw[j] * factor
            batch, batch_raw = [], 0.0
    rnd.refs = bracket.refs
    return rnd


class _Workload:
    name = ""
    specs: tuple = ()

    def __init__(self):
        self.rings = {spec: ringcheck.Ring(spec) for spec in self.specs}

    def prepare(self, lib):
        """The library's own set-up for this workload, after the import."""
        return {"lib": lib}

    def run_round(self, state, ops, tracer=None) -> Round:
        return timed_round([lambda op=op: self.make_call(state, op) for op in ops], tracer)

    def micro_rings(self, lib, seed):
        """Scaled ns per add and per multiply of library elements, averaged
        over this workload's rings (no tracing)."""
        rng = random.Random(seed)
        per = {"add": [], "mul": []}
        for spec, ring in self.rings.items():
            R = lib.parse_ring(spec)
            pairs = [
                (R.element_from_json(ring.to_json(rng.randrange(ring.size))),
                 R.element_from_json(ring.to_json(rng.randrange(ring.size))))
                for _ in range(2000)
            ]
            for kind in ("add", "mul"):
                bracket = Bracket()
                t0 = time.perf_counter()
                if kind == "add":
                    for a, b in pairs:
                        a + b
                else:
                    for a, b in pairs:
                        a * b
                raw = time.perf_counter() - t0
                per[kind].append(raw * bracket.close() / len(pairs) * 1e9)
        return {k: sum(v) / len(v) for k, v in per.items()}


def _warm_ring(R):
    R.units()
    R.maximal_ideal()
    R.square_classes()
    F = R.residue_field()
    F.units()
    F.square_classes()


class ChainLift(_Workload):
    """``chain_local`` between two random orthogonal bases of a random
    diagonal space, n in {3, 4}.  Cells are weighted by cost so that no
    (ring, n) cell takes much more than a third of a round."""

    name = "chain_lift"
    specs = (
        "GF(2)[x]/(x^2+x+1)",   # GF(4)
        "GF(2)[x]/(x^3+x+1)",   # GF(8)
        "GF(3)[x]/(x^2+1)",     # GF(9)
        "Z/9",
        "Z/27",
        "GF(3)[x]/(x^2)",
        "GF(4)[y]/(y^2)",
    )
    # (spec, n) -> operations per round; every other cell gets DEFAULT_COUNT
    COUNTS = {("GF(4)[y]/(y^2)", 4): 16}
    DEFAULT_COUNT = 48

    def make_inputs(self, seed):
        rng = random.Random(seed)
        ops = []
        for spec in self.specs:
            ring = self.rings[spec]
            for n in (3, 4):
                for _ in range(self.COUNTS.get((spec, n), self.DEFAULT_COUNT)):
                    gram = ring.random_diagonal_gram(n, rng)
                    ops.append({
                        "spec": spec,
                        "n": n,
                        "gram": gram,
                        "start": ring.random_orthogonal_basis(gram, rng),
                        "end": ring.random_orthogonal_basis(gram, rng),
                    })
        rng.shuffle(ops)
        return ops

    def prepare(self, lib):
        rings = {spec: lib.parse_ring(spec) for spec in self.specs}
        for R in rings.values():
            _warm_ring(R)
        return {"lib": lib, "rings": rings}

    def make_call(self, state, op):
        lib = state["lib"]
        R = state["rings"][op["spec"]]
        ring = self.rings[op["spec"]]
        space = lib.BilinearSpace.from_json(R, ring.mat_to_json(op["gram"]))

        def basis(vectors):
            return lib.OrthogonalBasis(
                space, [[R.element_from_json(ring.to_json(c)) for c in v] for v in vectors]
            )

        b, c = basis(op["start"]), basis(op["end"])
        return lambda: lib.chain_local(b, c).to_json()

    def check(self, state, ops, rnd):
        fails = {}
        for i, op in enumerate(ops):
            if i in rnd.errors:
                continue
            try:
                ringcheck.check_chain_certificate(
                    self.rings[op["spec"]], op["gram"], op["start"], op["end"], rnd.outputs[i]
                )
            except ringcheck.CheckError as exc:
                fails[i] = str(exc)
        return fails


class FormsWarm(_Workload):
    """``gw_class`` of random nondegenerate symmetric Gram matrices against
    GW structures built in set-up."""

    name = "forms_warm"
    specs = (
        "Z/9",
        "Z/25",
        "Z/27",
        "GF(3)[x]/(x^2+1)",     # GF(9)
        "GF(3)[x]/(x^2)",
        "GF(5)[x]/(x^2)",
        "GF(2)[x]/(x^2+x+1)",   # GF(4)
        "GF(4)[y]/(y^2)",
        "GF(2)[x]/(x^3)",
        "GF(2)[x]/(x^4)",
    )
    COUNTS = {3: 16, 4: 16, 6: 8}

    def make_inputs(self, seed):
        rng = random.Random(seed)
        ops = []
        for spec in self.specs:
            ring = self.rings[spec]
            for n, count in self.COUNTS.items():
                for _ in range(count):
                    ops.append({
                        "spec": spec,
                        "gram": ring.random_symmetric_gram(n, rng),
                        "congruence": ring.random_invertible(n, rng),
                        "summand": ring.random_symmetric_gram(2, rng),
                    })
        rng.shuffle(ops)
        return ops

    def prepare(self, lib):
        rings = {spec: lib.parse_ring(spec) for spec in self.specs}
        for R in rings.values():
            _warm_ring(R)
        structures = {spec: lib.gw_structure(R) for spec, R in rings.items()}
        return {"lib": lib, "rings": rings, "structures": structures}

    def _space(self, state, spec, gram):
        ring = self.rings[spec]
        return state["lib"].BilinearSpace.from_json(state["rings"][spec], ring.mat_to_json(gram))

    def make_call(self, state, op):
        space = self._space(state, op["spec"], op["gram"])
        structure = state["structures"][op["spec"]]
        gw_class = state["lib"].gw_class
        return lambda: list(gw_class(space, structure))

    def check(self, state, ops, rnd):
        """gw_class(A) = gw_class(M^T A M) for a random invertible M, and
        gw_class(A + B) = gw_class(A) + gw_class(B) for a random rank-2 B,
        with the sum taken in the benchmark's own coordinate arithmetic.
        Where 2 is a unit, every class of the round (A, B and A + B) must
        also match the form's rank and discriminant, which pins the answer
        to the input form."""
        gw_class = state["lib"].gw_class
        fails = {}
        forms: dict = {}     # spec -> [(op index, rank, det, class)]
        for i, op in enumerate(ops):
            if i in rnd.errors:
                continue
            spec = op["spec"]
            ring = self.rings[spec]
            S = state["structures"][spec]
            factors = list(S.invariant_factors)
            got = rnd.outputs[i]

            def add(a, b):
                return [
                    (x + y) % factors[k] if k < len(factors) else x + y
                    for k, (x, y) in enumerate(zip(a, b))
                ]

            try:
                if S.free_rank != 1 or len(got) != len(factors) + 1:
                    raise ringcheck.CheckError(f"class {got} does not fit GW = {S.describe()}")
                moved = ring.congruent(op["congruence"], op["gram"])
                if list(gw_class(self._space(state, spec, moved), S)) != got:
                    raise ringcheck.CheckError("class changed under a congruence M^T A M")
                total = ring.orthogonal_sum(op["gram"], op["summand"])
                lhs = list(gw_class(self._space(state, spec, total), S))
                summand = list(gw_class(self._space(state, spec, op["summand"]), S))
                if lhs != add(got, summand):
                    raise ringcheck.CheckError("class of an orthogonal sum is not the sum of classes")
            except ringcheck.CheckError as exc:
                fails[i] = str(exc)
                continue
            except Exception as exc:  # a library error on a derived input
                fails[i] = f"check raised {type(exc).__name__}: {exc}"
                continue
            det_a, det_b = ring.det(op["gram"]), ring.det(op["summand"])
            n = len(op["gram"])
            forms.setdefault(spec, []).extend([
                (i, n, det_a, got),
                (i, 2, det_b, summand),
                (i, n + 2, ring.mul_t[det_a][det_b], lhs),
            ])
        for spec, items in forms.items():
            ring = self.rings[spec]
            if ring.residue_size % 2 == 0:
                continue
            for k in ringcheck.odd_gw_class_clashes(ring, [item[1:] for item in items]):
                fails.setdefault(items[k][0], "class does not match rank and discriminant")
        return fails


class GroupsCold(_Workload):
    """One ``witt-lab`` group command per operation, through ``cli.run``, in
    a child forked from a parent that has only imported the library."""

    name = "groups_cold"
    # Every command costs about the same each time, so a percentile moves
    # little between runs only where it falls inside a cluster of commands
    # of similar cost.  With these 56 commands the median falls among the
    # 15-19 ms commands and the 90th percentile on the ~135 ms pair
    # (Z/25 and GF(3)[x]/(x^3) compare); see README.md.
    specs = (
        "Z/3",
        "Z/5",
        "Z/9",
        "Z/25",
        "Z/27",
        "GF(3)[x]/(x^2+1)",     # GF(9)
        "GF(3)[x]/(x^2)",
        "GF(3)[x]/(x^3)",
        "GF(5)[x]/(x^2)",
        "GF(2)[x]/(x^3+x+1)",   # GF(8)
        "GF(4)[y]/(y^2)",
        "GF(2)[x]/(x^2)",
        "GF(2)[x]/(x^3)",
        "GF(2)[x]/(x^4)",
    )
    COMMANDS = ("kmw", "gw", "witt", "compare")

    def make_inputs(self, seed):
        ops = [{"spec": s, "cmd": c} for s in self.specs for c in self.COMMANDS]
        random.Random(seed).shuffle(ops)
        return ops

    def run_round(self, state, ops, tracer=None) -> Round:
        rnd = Round(len(ops))
        for i, op in enumerate(ops):
            res = in_child(state["lib"], [op["cmd"], "--ring", op["spec"]], tracer)
            if "error" in res:
                rnd.errors[i] = res["error"]
            else:
                rnd.outputs[i] = {"code": res["code"], "stdout": res["stdout"]}
            if tracer is not None and "trace" in res:
                tracer.merge(res["trace"])
            rnd.raw[i] = res["raw"]
            rnd.scaled[i] = res["raw"] * scale_factor(res["ref_before"], res["ref_after"])
            rnd.refs.extend((res["ref_before"], res["ref_after"]))
        return rnd

    def check(self, state, ops, rnd):
        fails = {}
        by_ring: dict = {}
        for i, op in enumerate(ops):
            if i in rnd.errors:
                continue
            out = rnd.outputs[i]
            try:
                if out["code"] != 0:
                    raise ringcheck.CheckError(f"exit code {out['code']}")
                try:
                    data = json.loads(out["stdout"])
                except ValueError:
                    raise ringcheck.CheckError("stdout is not one JSON document") from None
                ringcheck.check_group_output(self.rings[op["spec"]], op["cmd"], data)
                by_ring.setdefault(op["spec"], {})[op["cmd"]] = (i, data)
            except ringcheck.CheckError as exc:
                fails[i] = str(exc)
        for spec, outs in by_ring.items():
            try:
                ringcheck.check_group_round(self.rings[spec], {c: d for c, (_, d) in outs.items()})
            except ringcheck.CheckError as exc:
                for i, _ in outs.values():
                    fails[i] = str(exc)
        return fails


def in_child(lib, argv, tracer):
    """Fork, run ``cli.run(argv)`` with stdout captured, bracketed by the
    reference loop in the child, and return what the child measured."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(rfd)
            res = {}
            try:
                # The first pass over the reference table after a fork pays
                # copy-on-write page faults (reads write refcounts); keep
                # them out of the timed reference.
                reference_loop()
                ref_before = time_reference()
                out, err = io.StringIO(), io.StringIO()
                if tracer is not None:
                    tracer.reset()   # drop the spans the parent already holds
                    tracer.enabled = True
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = lib.cli.run(argv)
                raw = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
                ref_after = time_reference()
                res = {"code": code, "stdout": out.getvalue(), "raw": raw,
                       "ref_before": ref_before, "ref_after": ref_after}
                if tracer is not None:
                    res["trace"] = tracer.export()
            except Exception as exc:
                res = {"error": f"{type(exc).__name__}: {exc}", "raw": 0.0,
                       "ref_before": 1.0, "ref_after": 1.0}
            data = json.dumps(res).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
            os.close(wfd)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    with os.fdopen(rfd, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        raise RuntimeError(f"benchmark child for {argv} exited with status {status}")
    return json.loads(b"".join(chunks))


WORKLOADS = {w.name: w for w in (ChainLift, GroupsCold, FormsWarm)}
