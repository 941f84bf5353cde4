"""Spans and counts recorded by wrapping the library's public functions.

Nothing here changes the library's files: ``Tracer.install`` replaces, in
every module of an imported ``wittlab``, each listed public function (and a
few public methods on their classes) with a wrapper.  A span is (name,
parent span, start, end); spans live in flat int arrays in memory and are
written out when the benchmark ends.  A span's self time is its duration
minus the time its child spans cover.  Ring arithmetic is only counted,
since it runs millions of times per round.

Wrappers do nothing but call through while ``enabled`` is false, so set-up
and input conversion stay out of the figures.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

# module -> public functions that get a span
SPAN_FUNCTIONS = {
    "rings": ["parse_ring"],
    "matrices": ["mat_mul", "mat_det", "mat_inverse", "congruent", "kernel_basis", "solve_field"],
    "bilinear": [
        "diagonalize", "stable_diagonalize", "is_isometric", "orthogonal_complement",
        "resolve_block", "steinberg_witness", "hyperbolic_scaling_witness",
        "check_representation_identity",
    ],
    "chains": [
        "chain_local", "chain_field", "chain_equal_mod_m", "lift_pair", "lift_basis",
        "verify_chain", "extend_vector_chain", "find_nonvanishing_vector", "hat_chain",
        "bfs_chain_oracle", "elementary_move", "all_orthogonal_bases",
    ],
    "groups": [
        "kmw_presentation", "ktilde_presentation", "gw_presentation", "witt_presentation",
        "group_structure", "kmw_structure", "gw_structure", "witt_structure",
        "ktilde_structure", "augmentation_ideal", "comparison_map", "gw_class",
        "product_table", "verify_steinberg_consequences", "verify_rank2_equality",
        "stable_isometry_oracle",
    ],
    "snf": ["hnf_rows", "smith_normal_form", "solve_in_rowspace", "int_inverse_unimodular"],
    "cli": ["run"],
}

# (module, class, method) -> span name
SPAN_METHODS = {
    ("bilinear", "BilinearSpace", "eval_b"): "bilinear.eval_b",
    ("groups", "AbelianGroupStructure", "coords_of_group_ring"): "groups.coords_of_group_ring",
}

# (module, class, method) -> counter name
COUNTED_METHODS = {
    ("rings", "RingElement", "__mul__"): "rings.mul",
    ("rings", "RingElement", "__rmul__"): "rings.mul",
    ("rings", "RingElement", "__add__"): "rings.add",
    ("rings", "RingElement", "__radd__"): "rings.add",
    ("rings", "RingElement", "__sub__"): "rings.add",
    ("rings", "RingElement", "inv"): "rings.inv",
}

PRESENTATIONS = ("kmw_presentation", "ktilde_presentation", "gw_presentation", "witt_presentation")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict = {}
        self.enabled = False

    # -- recording -------------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span_wrapper(self, name, fn, on_result=None):
        nid = self._nid(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter_wrapper(self, name, fn):
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, lib):
        """Wrap the listed functions of an imported ``wittlab`` package."""
        modules = [getattr(lib, m) for m in SPAN_FUNCTIONS] + [lib]
        replace = {}
        for mod_name, funcs in SPAN_FUNCTIONS.items():
            mod = getattr(lib, mod_name)
            for fname in funcs:
                fn = getattr(mod, fname)
                hook = self._presentation_size if fname in PRESENTATIONS else None
                replace[id(fn)] = (fn, self.span_wrapper(f"{mod_name}.{fname}", fn, hook))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(mod, attr, replace[id(value)][1])
        for (mod_name, cls_name, meth), name in SPAN_METHODS.items():
            cls = getattr(getattr(lib, mod_name), cls_name)
            setattr(cls, meth, self.span_wrapper(name, vars(cls)[meth]))
        for (mod_name, cls_name, meth), name in COUNTED_METHODS.items():
            cls = getattr(getattr(lib, mod_name), cls_name)
            setattr(cls, meth, self.counter_wrapper(name, vars(cls)[meth]))
        self._wrap_basis_init(lib.chains.OrthogonalBasis)

    def _presentation_size(self, p):
        self.count("groups.presentations")
        self.count("groups.generators", len(p.generators))
        self.count("groups.rows", len(p.rows))

    def _wrap_basis_init(self, cls):
        orig = cls.__init__
        tracer = self
        self.counts.setdefault("chains.basis_checks", 0)

        @functools.wraps(orig)
        def __init__(self, space, vectors, validate=True):
            if tracer.enabled and validate:
                tracer.counts["chains.basis_checks"] += 1
            orig(self, space, vectors, validate)

        cls.__init__ = __init__

    # -- results -------------------------------------------------------------------

    def reset(self):
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        for k in self.counts:
            self.counts[k] = 0

    def export(self) -> dict:
        return {
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict):
        """Append spans exported by a forked child (which shares this
        tracer's name table)."""
        offset = len(self.start)
        self.name_id.extend(data["name_id"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for k, v in data["counts"].items():
            self.count(k, v)

    def summary(self) -> dict:
        """name -> [calls, total_ns, self_ns]."""
        n = len(self.start)
        covered = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name_id[i]], [0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - covered[i]
        return out

    def write(self, path):
        """One JSON object: the name table, then one [name, parent, start_ns,
        end_ns] row per span, with times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "counts": %s, "spans": [\n' % (
                json.dumps(self.names), json.dumps(self.counts, sort_keys=True)))
            n = len(self.start)
            for i in range(n):
                fh.write("[%d,%d,%d,%d]%s\n" % (
                    self.name_id[i], self.parent[i], self.start[i] - t0,
                    self.end[i] - t0, "," if i + 1 < n else ""))
            fh.write("]}\n")
