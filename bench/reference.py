"""Reference figures quoted in README.md, each reproducible on its own.

    python3 bench/reference.py cold --ring Z/81
    python3 bench/reference.py chains --ring 'GF(4)[y]/(y^2)'
    python3 bench/reference.py inputs --workload chain_lift --seed 1

``cold`` runs ``witt-lab compare`` in a child forked from a parent that has
only imported the library, as the groups_cold workload does.  ``chains``
times chain_local on 20 random pairs of bases of random diagonal spaces of
dimension 4, made from seed 1, in one process.  ``inputs`` times the generation of a workload's inputs,
which set-up time leaves out.  Each prints raw and scaled seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ringcheck  # noqa: E402
from refscale import Bracket, scale_factor  # noqa: E402
from workloads import WORKLOADS, ChainLift, in_child, fresh_import  # noqa: E402

CHAIN_N = 4
CHAIN_COUNT = 20
CHAIN_SEED = 1


def cold(args):
    lib = fresh_import()
    res = in_child(lib, ["compare", "--ring", args.ring], None)
    out = json.loads(res["stdout"])
    return {
        "command": "compare", "ring": args.ring, "exit_code": res["code"],
        "raw_s": res["raw"],
        "scaled_s": res["raw"] * scale_factor(res["ref_before"], res["ref_after"]),
        "is_isomorphism": out.get("is_isomorphism"),
    }


def chains(args):
    wl = ChainLift()
    ring = wl.rings.setdefault(args.ring, ringcheck.Ring(args.ring))
    lib = fresh_import()
    state = {"lib": lib, "rings": {args.ring: lib.parse_ring(args.ring)}}
    rng = random.Random(CHAIN_SEED)
    raw = scaled = 0.0
    lengths = []
    for _ in range(CHAIN_COUNT):
        gram = ring.random_diagonal_gram(CHAIN_N, rng)
        op = {"spec": args.ring, "gram": gram,
              "start": ring.random_orthogonal_basis(gram, rng),
              "end": ring.random_orthogonal_basis(gram, rng)}
        call = wl.make_call(state, op)
        bracket = Bracket()
        t0 = time.perf_counter()
        cert = call()
        dt = time.perf_counter() - t0
        raw += dt
        scaled += dt * bracket.close()
        ringcheck.check_chain_certificate(ring, gram, op["start"], op["end"], cert)
        lengths.append(len(cert["bases"]))
    return {"ring": args.ring, "n": CHAIN_N, "count": CHAIN_COUNT, "raw_s": raw,
            "scaled_s": scaled, "mean_chain_length": sum(lengths) / len(lengths)}


def inputs(args):
    wl = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    ops = wl.make_inputs(args.seed)
    return {"workload": args.workload, "ops": len(ops), "raw_s": time.perf_counter() - t0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("cold").add_argument("--ring", required=True)
    sub.add_parser("chains").add_argument("--ring", required=True)
    p = sub.add_parser("inputs")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps({"cold": cold, "chains": chains, "inputs": inputs}[args.what](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
