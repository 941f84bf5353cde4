"""Benchmark of the wittlab library: one workload per invocation.

    python3 bench/run.py --workload chain_lift --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run builds its inputs from ``--seed``, sets the library up several
times, then repeats whole rounds of the same operations until ``--seconds``
of rounds have passed.  Every output is checked by the benchmark's own code.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it gives the unscaled figures and other
detail.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refscale import Bracket, percentile  # noqa: E402
from spantrace import Tracer  # noqa: E402
from workloads import WORKLOADS, fresh_import  # noqa: E402

SETUP_REPS = 15
MIN_OPS = 100            # so that ten latencies lie beyond the p90
OUT_DIR = os.path.join(HERE, "out")


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def timed_setups(wl, reps):
    """Import the library afresh and run the workload's own set-up, reps
    times; returns (raw seconds, scaled seconds, state of the last)."""
    raw, scaled = [], []
    state = None
    for _ in range(reps):
        bracket = Bracket()
        t0 = time.perf_counter()
        state = wl.prepare(fresh_import())
        dt = time.perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * bracket.close())
    return raw, scaled, state


def repeat_failures(first, first_bad, rnd):
    """Failures of a round after the checked first one.  A failure counts
    once for every round in which the op is attempted: an op fails if it
    raised now, if it failed in the first round (``first_bad``: it raised
    or its output failed the check), or if its output differs from the
    first round's."""
    return {
        i for i in range(len(rnd.outputs))
        if i in rnd.errors or i in first_bad or rnd.outputs[i] != first.outputs[i]
    }


def run_untraced(wl, seed, seconds):
    t0 = time.perf_counter()
    ops = wl.make_inputs(seed)
    gen_s = time.perf_counter() - t0
    setup_raw, setup_scaled, state = timed_setups(wl, SETUP_REPS)

    first = first_bad = None
    scaled, raw, refs = [], [], []
    failed = 0
    measured = check_s = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        rnd = wl.run_round(state, ops)
        measured += time.perf_counter() - t0
        if first is None:
            t0 = time.perf_counter()
            first, first_fails = rnd, wl.check(state, ops, rnd)
            check_s = time.perf_counter() - t0
            first_bad = set(first_fails) | set(rnd.errors)
            bad = first_bad
        else:
            bad = repeat_failures(first, first_bad, rnd)
        failed += len(bad)
        scaled.extend(rnd.scaled)
        raw.extend(rnd.raw)
        refs.extend(rnd.refs)
        rounds += 1
        if measured >= seconds and len(scaled) >= MIN_OPS:
            break

    def figures(times, setup):
        ms = [t * 1000.0 for t in times]
        return {
            "ops_per_s": len(times) / sum(times),
            "latency_p50_ms": percentile(ms, 50),
            "latency_p90_ms": percentile(ms, 90),
            "setup_s": statistics.median(setup),
        }

    metrics = figures(scaled, setup_scaled)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
    detail = {
        "workload": wl.name, "seed": seed, "rounds": rounds, "ops_per_round": len(ops),
        "raw": figures(raw, setup_raw), "scaled": metrics,
        "ref_ms": {"median": statistics.median(refs) * 1e3, "min": min(refs) * 1e3, "max": max(refs) * 1e3},
        "input_generation_s": gen_s, "check_s": check_s, "measured_s": measured,
        "failures": {str(i): m for i, m in sorted({**first.errors, **first_fails}.items())[:5]},
    }
    # This benchmark keeps no known failing op: any failure is a fault.
    result = {
        "correct": failed == 0,
        "attempted": len(scaled),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return detail, result


# name -> unit of every per-layer metric, in BENCHMARK.json order
LAYER_UNITS = {
    "rings.mul_calls": "count", "rings.add_calls": "count", "rings.inv_calls": "count",
    "rings.mul_ns": "ns", "rings.add_ns": "ns", "rings.parse_ms": "ms",
    "forms.eval_b_calls": "count", "forms.eval_b_ms": "ms", "forms.mat_det_ms": "ms",
    "forms.diagonalize_ms": "ms", "forms.stable_diagonalize_ms": "ms",
    "forms.is_isometric_calls": "count", "forms.is_isometric_ms": "ms",
    "chains.verify_chain_calls": "count", "chains.basis_checks_per_basis": "ratio",
    "chains.verify_chain_ms": "ms", "chains.chain_field_ms": "ms", "chains.lift_pair_ms": "ms",
    "chains.equal_mod_m_ms": "ms", "chains.bases_per_chain": "count",
    "groups.generators": "count", "groups.rows": "count", "groups.presentation_ms": "ms",
    "groups.structure_ms": "ms", "groups.comparison_ms": "ms", "snf.hnf_ms": "ms",
    "snf.smith_ms": "ms", "groups.coords_ms": "ms",
    "cli.self_ms": "ms", "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def layer_metrics(summary, setup_summary, counts, n_ops, rnd, micro, overhead_pct, factor):
    """Per-operation figures of the traced round.  ``summary`` maps a span
    name to [calls, total ns, self ns]; times are self times, scaled by the
    traced round's own reference factor."""

    def per(x, n):
        return x / n if n else 0.0

    def self_ms(*names, table=summary):
        return sum(table.get(n, [0, 0, 0])[2] for n in names) * factor / 1e6

    def calls(name, table=summary):
        return table.get(name, [0, 0, 0])[0]

    chains_out = [o for o in rnd.outputs if isinstance(o, dict) and "bases" in o]
    n_bases = sum(len(o["bases"]) for o in chains_out)
    cli_out = [o["stdout"] for o in rnd.outputs if isinstance(o, dict) and "stdout" in o]
    parse_table = summary if calls("rings.parse_ring") else setup_summary
    presentations = counts.get("groups.presentations", 0)
    values = {
        "rings.mul_calls": per(counts.get("rings.mul", 0), n_ops),
        "rings.add_calls": per(counts.get("rings.add", 0), n_ops),
        "rings.inv_calls": per(counts.get("rings.inv", 0), n_ops),
        "rings.mul_ns": micro["mul"],
        "rings.add_ns": micro["add"],
        "rings.parse_ms": per(self_ms("rings.parse_ring", table=parse_table),
                              calls("rings.parse_ring", parse_table)),
        "forms.eval_b_calls": per(calls("bilinear.eval_b"), n_ops),
        "forms.eval_b_ms": per(self_ms("bilinear.eval_b"), n_ops),
        "forms.mat_det_ms": per(self_ms("matrices.mat_det"), n_ops),
        "forms.diagonalize_ms": per(self_ms("bilinear.diagonalize"), n_ops),
        "forms.stable_diagonalize_ms": per(self_ms("bilinear.stable_diagonalize"), n_ops),
        "forms.is_isometric_calls": per(calls("bilinear.is_isometric"), n_ops),
        "forms.is_isometric_ms": per(self_ms("bilinear.is_isometric"), n_ops),
        "chains.verify_chain_calls": per(calls("chains.verify_chain"), len(chains_out)),
        "chains.basis_checks_per_basis": per(counts.get("chains.basis_checks", 0), n_bases),
        "chains.verify_chain_ms": per(self_ms("chains.verify_chain"), n_ops),
        "chains.chain_field_ms": per(self_ms("chains.chain_field"), n_ops),
        "chains.lift_pair_ms": per(self_ms("chains.lift_pair"), n_ops),
        "chains.equal_mod_m_ms": per(self_ms("chains.chain_equal_mod_m"), n_ops),
        "chains.bases_per_chain": per(n_bases, len(chains_out)),
        "groups.generators": per(counts.get("groups.generators", 0), presentations),
        "groups.rows": per(counts.get("groups.rows", 0), presentations),
        "groups.presentation_ms": per(self_ms(
            "groups.kmw_presentation", "groups.ktilde_presentation",
            "groups.gw_presentation", "groups.witt_presentation"), n_ops),
        "groups.structure_ms": per(self_ms(
            "groups.group_structure", "groups.kmw_structure", "groups.gw_structure",
            "groups.witt_structure", "groups.ktilde_structure"), n_ops),
        "groups.comparison_ms": per(self_ms("groups.comparison_map"), n_ops),
        "snf.hnf_ms": per(self_ms("snf.hnf_rows"), n_ops),
        "snf.smith_ms": per(self_ms("snf.smith_normal_form"), n_ops),
        "groups.coords_ms": per(self_ms("groups.coords_of_group_ring"), n_ops),
        "cli.self_ms": per(self_ms("cli.run"), n_ops),
        "cli.output_bytes": per(sum(len(out.encode()) for out in cli_out), len(cli_out)),
        "trace.overhead_pct": overhead_pct,
    }
    return {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}


def run_traced(wl, seed):
    """One untraced round, then one traced round after a fresh set-up under
    the tracer.  Both rounds are the same fixed operations, so the counts
    repeat exactly from run to run."""
    ops = wl.make_inputs(seed)
    state = wl.prepare(fresh_import())
    plain = wl.run_round(state, ops)
    fails = wl.check(state, ops, plain)
    micro = wl.micro_rings(state["lib"], seed)

    tracer = Tracer()
    lib = fresh_import()
    tracer.install(lib)
    tracer.enabled = True
    state = wl.prepare(lib)
    tracer.enabled = False
    setup_summary = tracer.summary()
    tracer.reset()
    traced = wl.run_round(state, ops, tracer)
    plain_bad = set(fails) | set(plain.errors)
    traced_bad = repeat_failures(plain, plain_bad, traced)

    overhead = 100.0 * (sum(traced.scaled) / sum(plain.scaled) - 1.0)
    metrics = layer_metrics(tracer.summary(), setup_summary, tracer.counts, len(ops),
                            traced, micro, overhead, sum(traced.scaled) / sum(traced.raw))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-{seed}.json"))
    detail = {
        "workload": wl.name, "seed": seed, "ops": len(ops), "spans": len(tracer.start),
        "untraced_raw_s": sum(plain.raw), "traced_raw_s": sum(traced.raw),
        "untraced_scaled_s": sum(plain.scaled), "traced_scaled_s": sum(traced.scaled),
        "failures": {str(i): m for i, m in sorted({**plain.errors, **fails}.items())[:5]},
    }
    failed = len(plain_bad) + len(traced_bad)   # per attempt: two rounds
    result = {"correct": failed == 0, "attempted": 2 * len(ops), "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wittlab", "__init__.py")):
        print(f"bench: the wittlab library is not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    if args.trace:
        detail, result = run_traced(wl, args.seed)
    else:
        detail, result = run_untraced(wl, args.seed, args.seconds)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
