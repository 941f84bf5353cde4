"""The benchmark's ``--trace 1`` wraps library functions by name
(``bench/spantrace.py``).  A refactor that removes or renames one of them
breaks the traced benchmark; this test catches that without running it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spantrace, workloads
tracer = spantrace.Tracer()
lib = workloads.fresh_import()
tracer.install(lib)
tracer.enabled = True
assert lib.cli.run(["oracle", "--ring", "GF(3)", "--rank-cap", "2"]) == 0
assert lib.cli.run(["gw", "--ring", "GF(3)"]) == 0
R = lib.parse_ring("Z/9")
S = lib.BilinearSpace.diagonal(R, (R.one, R.from_int(2), R.one))
def basis(rows):
    return lib.OrthogonalBasis(S, [[R.from_int(c) for c in v] for v in rows])
chain = lib.chain_local(basis([[5, 7, 1], [4, 0, 7], [2, 8, 4]]),
                        basis([[8, 3, 3], [6, 6, 2], [3, 2, 6]]))
assert len(chain) > 1
# the chain engine evaluates b on index tuples, past eval_b; eval_q calls it
assert S.eval_q(chain.bases[0].vectors[0]).is_unit()
spans = tracer.summary()
for name in ("cli.run", "groups.stable_isometry_oracle", "groups.gw_presentation",
             "groups.group_structure", "groups.coords_of_group_ring",
             "chains.chain_local", "chains.verify_chain", "bilinear.eval_b"):
    assert name in spans, name
assert tracer.counts["chains.basis_checks"] >= 2, tracer.counts
"""


def test_spantrace_installs_on_a_fresh_import():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_name_the_tracer_wraps_exists():
    """Each function, method and counter ``spantrace`` names is defined on
    the library where ``Tracer.install`` looks for it: methods in the class's
    own ``vars``, as install reads them.  Importing ``spantrace`` changes
    nothing; only ``install`` wraps."""
    import importlib
    import inspect

    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spantrace
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for mod_name, funcs in spantrace.SPAN_FUNCTIONS.items():
        mod = importlib.import_module(f"wittlab.{mod_name}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"{mod_name}.{fname}"
    for table in (spantrace.SPAN_METHODS, spantrace.COUNTED_METHODS):
        for mod_name, cls_name, meth in table:
            cls = getattr(importlib.import_module(f"wittlab.{mod_name}"), cls_name)
            assert callable(vars(cls).get(meth)), f"{mod_name}.{cls_name}.{meth}"
    init = vars(importlib.import_module("wittlab.chains").OrthogonalBasis)["__init__"]
    assert list(inspect.signature(init).parameters)[:4] == ["self", "space", "vectors", "validate"]
