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
spans = tracer.summary()
for name in ("cli.run", "groups.stable_isometry_oracle", "groups.gw_presentation",
             "groups.group_structure", "groups.coords_of_group_ring"):
    assert name in spans, name
"""


def test_spantrace_installs_on_a_fresh_import():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
